package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"pinocchio/internal/geo"
)

// FuzzReadCSV hardens the check-in parser against malformed input: it
// must return an error or a consistent dataset with finite positions
// and venue points, never panic, and a successfully parsed dataset
// must survive a write/read round trip.
func FuzzReadCSV(f *testing.F) {
	f.Add("user_id,venue_id,x_km,y_km,venue_x_km,venue_y_km\n0,0,1.5,2.5,1.5,2.5\n")
	f.Add("user_id,venue_id,x_km,y_km,venue_x_km,venue_y_km\n0,0,1,2,1,2\n1,0,1.1,2.1,1,2\n")
	f.Add("")
	f.Add("user_id,venue_id,x_km,y_km,venue_x_km,venue_y_km\n-1,0,1,1,1,1\n")
	f.Add("garbage")
	f.Add("user_id,venue_id,x_km,y_km,venue_x_km,venue_y_km\n0,0,NaN,Inf,1,1\n")
	f.Add("user_id,venue_id,x_km,y_km,venue_x_km,venue_y_km\n99999,99999,0,0,0,0\n")

	f.Fuzz(func(t *testing.T, data string) {
		if len(data) > 1<<16 {
			return
		}
		// Guard against absurd sparse ids blowing up the venue slice.
		ds, err := ReadCSV(strings.NewReader(data), "fuzz")
		if err != nil {
			return
		}
		// Parsed data must be internally consistent.
		if ds.TotalCheckIns() == 0 {
			t.Fatal("parsed dataset with zero check-ins and no error")
		}
		sum := 0
		for _, v := range ds.Venues {
			sum += v.CheckIns
			if v.Visitors > v.CheckIns {
				t.Fatalf("venue %d: visitors %d > check-ins %d", v.ID, v.Visitors, v.CheckIns)
			}
		}
		if sum != ds.TotalCheckIns() {
			t.Fatalf("venue check-ins %d != total %d", sum, ds.TotalCheckIns())
		}
		finite := func(p geo.Point) bool {
			return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) && !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
		}
		for _, o := range ds.Objects {
			if o.N() == 0 {
				t.Fatal("object with no positions")
			}
			for _, p := range o.Positions {
				if !finite(p) {
					t.Fatalf("object %d: non-finite position %v", o.ID, p)
				}
			}
		}
		for _, v := range ds.Venues {
			if !finite(v.Point) {
				t.Fatalf("venue %d: non-finite point %v", v.ID, v.Point)
			}
		}
		// Round trip.
		var buf bytes.Buffer
		if err := ds.WriteCSV(&buf); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		back, err := ReadCSV(&buf, "fuzz2")
		if err != nil {
			t.Fatalf("re-read after write: %v", err)
		}
		if back.TotalCheckIns() != ds.TotalCheckIns() {
			t.Fatalf("round trip changed check-in count: %d vs %d",
				back.TotalCheckIns(), ds.TotalCheckIns())
		}
	})
}
