package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestOnConnExportsAndCounts(t *testing.T) {
	var sink bytes.Buffer
	tr := New(Options{Sink: &sink})
	tr.OnConn(ConnReadTimeout, "10.0.0.1:5", "i/o timeout")
	tr.OnConn(ConnReadTimeout, "10.0.0.2:6", "i/o timeout")
	tr.OnConn(ConnSampleLimit, "10.0.0.3:7", "fed 2000000 samples")

	counts := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(sink.String()), "\n") {
		var ev ConnEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		counts[ev.Event]++
	}
	if counts[ConnReadTimeout] != 2 || counts[ConnSampleLimit] != 1 {
		t.Errorf("exported conn events = %v", counts)
	}

	// Every exported line must clear the schema validator.
	types, err := ValidateJSONL(strings.NewReader(sink.String()))
	if err != nil {
		t.Fatalf("exported conn records fail validation: %v", err)
	}
	if types[TypeConn] != 3 {
		t.Errorf("validated %d conn records, want 3", types[TypeConn])
	}
}

func TestValidateConnRecord(t *testing.T) {
	good := `{"type":"conn","event":"overload_shed","remote":"1.2.3.4:5"}`
	if err := ValidateRecord([]byte(good)); err != nil {
		t.Errorf("valid conn record rejected: %v", err)
	}
	bad := `{"type":"conn","event":"made_up"}`
	if err := ValidateRecord([]byte(bad)); err == nil {
		t.Error("unknown conn event accepted")
	}
	// The new stream event must validate too.
	san := `{"type":"stream","event":"sanitized","abs_start":12}`
	if err := ValidateRecord([]byte(san)); err != nil {
		t.Errorf("sanitized stream event rejected: %v", err)
	}
}

func TestOnConnNilTracer(t *testing.T) {
	var tr *Tracer
	tr.OnConn(ConnClientAbort, "", "") // must not panic
}
