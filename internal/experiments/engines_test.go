package experiments

import "testing"

// TestEnginesTwoRows checks the engine comparison covers exactly the two
// engines, compiled first, with positive throughput for both (Engines
// itself fails if their campaign outcomes diverge).
func TestEnginesTwoRows(t *testing.T) {
	h := &Harness{Quick: true}
	res, err := h.Engines("rawcaudio")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0].Engine != "compiled" || res.Rows[1].Engine != "ref" {
		t.Fatalf("rows = %+v, want compiled and ref", res.Rows)
	}
	for _, row := range res.Rows {
		if row.MInstrPerSec <= 0 || row.TrialsPerSec <= 0 {
			t.Errorf("%s: non-positive throughput %+v", row.Engine, row)
		}
	}
}
