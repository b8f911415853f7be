// tnbdecode decodes a LoRa IQ trace with TnB and prints the decoded packet
// list, mirroring the output of the paper artifact's TnBMain.m: the total
// count plus, per packet, the node ID, sequence number, estimated SNR,
// start time and CFO.
//
// Usage:
//
//	tnbdecode -sf 8 trace.iq
//	tnbdecode -sf 8 -trace-out traces.jsonl trace.iq
//	tnbdecode -sf 8 -explain 3 trace.iq     # per-symbol cost table of pkt 3
//
// -explain prints one packet's full decode trace: the detection estimate,
// the verdict with its failure reason, the BEC block table, and every
// symbol's peak-assignment costs. Packets are numbered by detection start
// order over ALL detected packets (decoded and failed), matching the index
// column that -explain -1 lists.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime/pprof"
	"sort"

	"tnb/internal/lora"
	"tnb/internal/obs"
	"tnb/internal/stagegraph"
	"tnb/internal/thrive"
	"tnb/internal/trace"
	"tnb/internal/tracestore"
)

func main() {
	var (
		sf         = flag.Int("sf", 8, "spreading factor of the trace")
		osf        = flag.Int("osf", 8, "over-sampling factor")
		bw         = flag.Float64("bw", 125e3, "bandwidth in Hz")
		noBEC      = flag.Bool("nobec", false, "disable Block Error Correction")
		scheme     = flag.String("scheme", "tnb", "tnb | thrive | sibling")
		traceOut   = flag.String("trace-out", "", "write per-packet decode traces as JSONL to this file")
		traceStore = flag.String("trace-store", "", "persist decode traces in an indexed on-disk ring at this directory (query with tnbtrace -store)")
		explain    = flag.Int("explain", -2, "print the decode trace of packet N (start order, decoded and failed); -1 lists all packets")
		workers    = flag.Int("workers", 0, "receiver worker-pool width (0 = all cores, 1 = serial); output is identical for every value")
		record     = flag.String("record", "", "snapshot every stage boundary to a replayable recording at this file (inspect with tnbreplay)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the decode to this file")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tnbdecode [flags] <trace.iq>")
		os.Exit(2)
	}
	if *cpuProf != "" {
		pf, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		// LIFO: stop (which flushes) must run before the file closes.
		defer pf.Close()
		defer pprof.StopCPUProfile()
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	params := lora.MustParams(*sf, 4, *bw, *osf)
	tr, err := trace.ReadIQ16(f, params.SampleRate())
	if err != nil {
		log.Fatal(err)
	}

	cfg := stagegraph.Config{Params: params, UseBEC: !*noBEC, Workers: *workers}
	switch *scheme {
	case "tnb", "thrive":
	case "sibling":
		cfg.Policy = thrive.PolicySibling
	default:
		log.Fatalf("unknown scheme %q", *scheme)
	}
	if *scheme == "thrive" {
		cfg.UseBEC = false
	}

	var traceFile *os.File
	if *traceOut != "" {
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
	}
	var store *tracestore.Store
	if *traceStore != "" {
		store, err = tracestore.Open(tracestore.Options{Dir: *traceStore})
		if err != nil {
			log.Fatalf("trace-store: %v", err)
		}
	}
	var tracer *obs.Tracer
	if traceFile != nil || store != nil || *explain >= -1 {
		opts := obs.Options{RingSize: 1 << 14, Spill: store}
		if traceFile != nil {
			opts.Sink = traceFile
		}
		tracer = obs.New(opts)
		cfg.Tracer = tracer
	}

	var rec *stagegraph.Recorder
	if *record != "" {
		rec = stagegraph.NewRecorder()
		cfg.Recorder = rec
	}

	rx := stagegraph.New(cfg)
	decoded := rx.Decode(tr)
	if rec != nil {
		if err := rec.WriteFile(*record); err != nil {
			log.Fatalf("record: %v", err)
		}
	}
	sort.Slice(decoded, func(i, j int) bool { return decoded[i].Start < decoded[j].Start })

	fmt.Printf("- TnB decoded %d pkts -\n", len(decoded))
	fmt.Printf("%6s %6s %8s %14s %10s %6s %8s\n", "node", "seq", "SNR dB", "start sample", "CFO Hz", "pass", "airtime")
	for _, d := range decoded {
		node, seq := -1, -1
		if len(d.Payload) >= 4 {
			node = int(binary.BigEndian.Uint16(d.Payload[0:2]))
			seq = int(binary.BigEndian.Uint16(d.Payload[2:4]))
		}
		cfoHz := d.CFOCycles / params.SymbolDuration()
		fmt.Printf("%6d %6d %8.1f %14.1f %10.1f %6d %7.1fms\n",
			node, seq, d.SNRdB, d.Start, cfoHz, d.Pass, d.AirtimeSec*1e3)
	}

	if *explain >= -1 {
		explainPacket(tracer, *explain)
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			log.Fatalf("trace-out: %v", err)
		}
	}
	if store != nil {
		if err := store.Close(); err != nil {
			log.Fatalf("trace-store: %v", err)
		}
	}
}

// explainPacket renders the decode trace of the n-th detected packet in
// start order (final verdicts only), or lists all packets for n == -1.
func explainPacket(tracer *obs.Tracer, n int) {
	final := finalTraces(tracer)
	if len(final) == 0 {
		fmt.Println("\nno decode traces recorded")
		return
	}
	if n == -1 {
		fmt.Printf("\n- %d detected packets (use -explain <idx>) -\n", len(final))
		fmt.Printf("%4s %14s %6s %10s %s\n", "idx", "start sample", "pass", "verdict", "sync")
		for i, pt := range final {
			verdict := "decoded"
			if !pt.OK {
				verdict = string(pt.FailureReason)
			}
			fmt.Printf("%4d %14d %6d %10s %.2f\n", i, pt.Detection.StartSample, pt.Pass, verdict, pt.SyncScore)
		}
		return
	}
	if n >= len(final) {
		log.Fatalf("explain: packet %d out of range (0..%d)", n, len(final)-1)
	}
	fmt.Println()
	obs.Explain(os.Stdout, final[n])
}

// finalTraces returns each packet's final-verdict trace, start-ordered.
func finalTraces(tracer *obs.Tracer) []*obs.PacketTrace {
	var final []*obs.PacketTrace
	for _, pt := range tracer.Snapshot() {
		if pt.Final {
			final = append(final, pt)
		}
	}
	sort.SliceStable(final, func(i, j int) bool {
		return final[i].Detection.StartSample < final[j].Detection.StartSample
	})
	return final
}
