package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"pinocchio/internal/geo"
	"pinocchio/internal/object"
)

// mapReadCSV is the reference loader: per-row maps for venues, their
// distinct visitors and each user's positions, then objects by
// ascending user id. ReadCSV must build the same Dataset from any
// input this accepts.
func mapReadCSV(t *testing.T, data string) *Dataset {
	t.Helper()
	cr := csv.NewReader(strings.NewReader(data))
	if _, err := cr.Read(); err != nil {
		t.Fatal(err)
	}
	type venueAcc struct {
		point    geo.Point
		count    int
		visitors map[int]bool
	}
	venues := map[int]*venueAcc{}
	users := map[int][]geo.Point{}
	ds := &Dataset{Name: "x"}
	maxVenue, maxUser := -1, -1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		uid, err1 := strconv.Atoi(rec[0])
		vid, err2 := strconv.Atoi(rec[1])
		var f [4]float64
		for i := range f {
			if f[i], err = strconv.ParseFloat(rec[2+i], 64); err != nil {
				t.Fatal(err)
			}
		}
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		fix := geo.Point{X: f[0], Y: f[1]}
		va, ok := venues[vid]
		if !ok {
			va = &venueAcc{point: geo.Point{X: f[2], Y: f[3]}, visitors: map[int]bool{}}
			venues[vid] = va
		}
		va.count++
		va.visitors[uid] = true
		users[uid] = append(users[uid], fix)
		ds.CheckIns = append(ds.CheckIns, CheckIn{UserID: uid, VenueID: vid, Point: fix})
		maxVenue, maxUser = max(maxVenue, vid), max(maxUser, uid)
	}
	ds.Venues = make([]Venue, maxVenue+1)
	for vid := range ds.Venues {
		ds.Venues[vid].ID = vid
		if va, ok := venues[vid]; ok {
			ds.Venues[vid].Point = va.point
			ds.Venues[vid].CheckIns = va.count
			ds.Venues[vid].Visitors = len(va.visitors)
		}
	}
	ds.Extent = geo.EmptyRect()
	for uid := 0; uid <= maxUser; uid++ {
		if pts, ok := users[uid]; ok {
			o := object.MustNew(uid, pts)
			ds.Objects = append(ds.Objects, o)
			ds.Extent = ds.Extent.Union(o.MBR())
		}
	}
	return ds
}

// TestReadCSVMatchesMapReference compares ReadCSV with the map-based
// reference on unsorted rows, repeat visits by one user, several users
// at one venue and sparse user ids, hand-written and random.
func TestReadCSVMatchesMapReference(t *testing.T) {
	header := strings.Join(csvHeader, ",") + "\n"
	cases := map[string]string{
		"unsorted, repeats, shared venue, sparse ids": header +
			"7,2,1.5,2.5,1,2\n" +
			"0,2,3,4,1,2\n" +
			"7,0,5,6,0.5,0.5\n" +
			"1000,2,7,8,1,2\n" +
			"7,2,9,10,1,2\n" +
			"0,5,11,12,6,6\n" +
			"0,2,13,14,1,2\n",
		"one row": header + "3,4,1,1,2,2\n",
	}
	rng := rand.New(rand.NewSource(31))
	for n := 0; n < 4; n++ {
		var b strings.Builder
		b.WriteString(header)
		users := make([]int, 1+rng.Intn(40))
		for i := range users {
			users[i] = rng.Intn(5000)
		}
		for r := 1 + rng.Intn(400); r > 0; r-- {
			vid := rng.Intn(60)
			fmt.Fprintf(&b, "%d,%d,%g,%g,%d,%d\n", users[rng.Intn(len(users))], vid,
				rng.Float64()*50-25, rng.Float64()*50-25, vid%7, vid/7)
		}
		cases[fmt.Sprintf("random %d", n)] = b.String()
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			got, err := ReadCSV(strings.NewReader(data), "x")
			if err != nil {
				t.Fatal(err)
			}
			if want := mapReadCSV(t, data); !reflect.DeepEqual(got, want) {
				t.Fatalf("ReadCSV built\n%+v\nreference built\n%+v", got, want)
			}
		})
	}
}

// TestReadCSVMemoryIndependentOfUserID requires the loader's memory to
// follow the rows, not the largest user id: a two-row file naming user
// 49,999,999 must not allocate a table indexed by user id.
func TestReadCSVMemoryIndependentOfUserID(t *testing.T) {
	data := strings.Join(csvHeader, ",") + "\n0,0,1,1,1,1\n49999999,1,2,2,2,2\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ds, err := ReadCSV(strings.NewReader(data), "x")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Objects) != 2 || ds.Objects[1].ID != 49_999_999 {
		t.Fatalf("objects %v", ds.Objects)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
		t.Fatalf("two-row file allocated %d bytes", alloc)
	}
}
