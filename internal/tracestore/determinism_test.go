package tracestore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"tnb/internal/lora"
	"tnb/internal/obs"
	"tnb/internal/stagegraph"
	"tnb/internal/trace"
)

// TestQueryDeterministicAcrossWorkerCounts pins the fleet-debugging
// contract end to end: the decode pipeline feeds a store through the
// tracer's spill, and because trace emission is deterministic at every
// worker-pool width (PR 3), a query over the resulting store returns a
// byte-identical result set whether the gateway ran -workers 1, 2 or 4.
func TestQueryDeterministicAcrossWorkerCounts(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	rng := rand.New(rand.NewSource(7))
	b := trace.NewBuilder(p, 1.5, 1, rng)
	starts := b.ScheduleUniform(6, 14)
	for i, s := range starts {
		payload := make([]uint8, 14)
		rng.Read(payload)
		if err := b.AddPacket(i, 0, payload, s, 10, -3000+float64(i)*1200, nil); err != nil {
			t.Fatalf("add packet %d: %v", i, err)
		}
	}
	tr, _ := b.Build()

	run := func(workers int) string {
		dir := t.TempDir()
		st, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		tracer := obs.New(obs.Options{Spill: st}).WithOrigin(obs.Origin{Gateway: "gw-0", Channel: 3, SF: 8})
		r := stagegraph.New(stagegraph.Config{Params: p, UseBEC: true, Seed: 7, Workers: workers, Tracer: tracer})
		if len(r.Decode(tr)) == 0 {
			t.Fatalf("workers=%d: decoded nothing", workers)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		ro, err := Open(Options{Dir: dir, ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := ro.Query(Query{Limit: -1})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 {
			t.Fatalf("workers=%d: store is empty", workers)
		}
		var buf bytes.Buffer
		for _, r := range res {
			fmt.Fprintf(&buf, "%d %s\n", r.Seq, r.Record)
		}
		return buf.String()
	}

	ref := run(1)
	for _, workers := range []int{2, 4} {
		if got := run(workers); got != ref {
			t.Errorf("workers=%d: query result diverged from serial run\nserial:\n%s\nworkers:\n%s", workers, ref, got)
		}
	}
}
