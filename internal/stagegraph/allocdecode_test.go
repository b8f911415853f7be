package stagegraph

import (
	"bytes"
	"fmt"
	"testing"

	"tnb/internal/lora"
)

// summarize renders the decoded set without pipeline counters, for
// comparisons between receivers that carry no metrics registry.
func summarize(out []Decoded) string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "decoded=%d\n", len(out))
	for _, d := range out {
		fmt.Fprintf(&buf, "payload=%x start=%.6f cfo=%.9f snr=%.9f pass=%d rescued=%d syms=%d air=%.9f\n",
			d.Payload, d.Start, d.CFOCycles, d.SNRdB, d.Pass, d.Rescued, d.DataSymbols, d.AirtimeSec)
	}
	return buf.String()
}

// decodeAllocCeiling bounds the steady-state allocations of one full decode
// of the six-packet collided benchmark trace. The seed of this repository
// measured 19,293 allocs/op here; the pooled calculators, persistent Thrive
// engine, and scan scratch reuse bring it under 2,000, and this ceiling
// keeps allocation regressions from creeping back in. It is a ceiling with
// headroom, not a target: lower is better.
const decodeAllocCeiling = 2000

// TestDecodeSteadyStateAllocs pins the decode loop's allocation budget: after
// a warmup decode has sized every pooled buffer (calculator arenas, engine
// symbol pool, detector scan scratch), re-decoding the same trace must stay
// under decodeAllocCeiling allocations.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	tr, _ := buildCollidedTrace(t, p, 7)
	r := New(Config{Params: p, UseBEC: true, Seed: 7, Workers: 1})
	if len(r.Decode(tr)) == 0 {
		t.Fatal("warmup decoded nothing")
	}
	allocs := testing.AllocsPerRun(3, func() {
		if len(r.Decode(tr)) == 0 {
			t.Fatal("steady-state decoded nothing")
		}
	})
	if allocs > decodeAllocCeiling {
		t.Fatalf("Decode allocates %.0f/op in steady state, ceiling %d", allocs, decodeAllocCeiling)
	}
	t.Logf("Decode steady state: %.0f allocs/op (ceiling %d)", allocs, decodeAllocCeiling)
}

// TestReceiverReuseDeterministic pins the pooling contract: a reused receiver
// (recycled calculator arenas, persistent engine scratch) must produce
// byte-identical output to a fresh receiver on every decode, including when
// a different trace ran in between.
func TestReceiverReuseDeterministic(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	trA, _ := buildCollidedTrace(t, p, 7)
	trB, _ := buildCollidedTrace(t, p, 21)

	refA := New(Config{Params: p, UseBEC: true, Seed: 7, Workers: 1})
	refB := New(Config{Params: p, UseBEC: true, Seed: 7, Workers: 1})
	wantA := summarize(refA.Decode(trA))
	wantB := summarize(refB.Decode(trB))
	if wantA == "decoded=0\n" || wantB == "decoded=0\n" {
		t.Fatal("reference decoded nothing")
	}

	reused := New(Config{Params: p, UseBEC: true, Seed: 7, Workers: 1})
	for round := 0; round < 3; round++ {
		if got := summarize(reused.Decode(trA)); got != wantA {
			t.Fatalf("round %d trace A: reused receiver diverged from fresh\nfresh:\n%s\nreused:\n%s",
				round, wantA, got)
		}
		if got := summarize(reused.Decode(trB)); got != wantB {
			t.Fatalf("round %d trace B: reused receiver diverged from fresh\nfresh:\n%s\nreused:\n%s",
				round, wantB, got)
		}
	}
}
