package dataset

import (
	"cmp"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"pinocchio/internal/geo"
	"pinocchio/internal/object"
)

// csvHeader is the check-in log schema: the recorded fix coordinates
// plus the venue's canonical coordinates, so both the objects and the
// venue ground truth round-trip exactly.
var csvHeader = []string{"user_id", "venue_id", "x_km", "y_km", "venue_x_km", "venue_y_km"}

// maxReasonableID bounds user and venue ids accepted by ReadCSV; the
// loader allocates a dense slice keyed by venue id.
const maxReasonableID = 50_000_000

// WriteCSV serializes the dataset as a check-in log, one row per
// check-in, preceded by a header. Venue ground truth is reconstructed
// on load by counting rows per venue.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	ff := func(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }
	for _, ci := range d.CheckIns {
		v := d.Venues[ci.VenueID]
		rec := []string{
			strconv.Itoa(ci.UserID),
			strconv.Itoa(ci.VenueID),
			ff(ci.Point.X), ff(ci.Point.Y),
			ff(v.Point.X), ff(v.Point.Y),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a check-in log written by WriteCSV (or any file in
// the same schema) and reconstructs the dataset: objects from per-user
// rows (positions in row order, objects by ascending user id), venues
// with check-in and distinct-visitor counts from per-venue rows.
//
// Memory is linear in the rows and the largest venue id, never in the
// largest user id: rows are grouped by user with a sort, not a table
// indexed by user id.
func ReadCSV(r io.Reader, name string) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)

	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading header: %w", err)
	}
	if header[0] != "user_id" {
		return nil, fmt.Errorf("dataset: unexpected header %v", header)
	}

	var venues []Venue
	var checkIns []CheckIn
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		uid, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: user_id: %w", line, err)
		}
		vid, err := strconv.Atoi(rec[1])
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: venue_id: %w", line, err)
		}
		var coords [4]float64
		for i := 0; i < 4; i++ {
			coords[i], err = strconv.ParseFloat(rec[2+i], 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d: field %s: %w", line, csvHeader[2+i], err)
			}
			// ParseFloat accepts NaN and infinities, which no distance
			// or rectangle test can order.
			if math.IsNaN(coords[i]) || math.IsInf(coords[i], 0) {
				return nil, fmt.Errorf("dataset: line %d: field %s: non-finite value %q", line, csvHeader[2+i], rec[2+i])
			}
		}
		if uid < 0 || vid < 0 {
			return nil, fmt.Errorf("dataset: line %d: negative id", line)
		}
		// Dense id spaces only: the loader materializes venues as a
		// slice, so an absurd id in a small file would allocate
		// gigabytes. Real exports number users and venues contiguously.
		if uid > maxReasonableID || vid > maxReasonableID {
			return nil, fmt.Errorf("dataset: line %d: id beyond %d", line, maxReasonableID)
		}
		fix := geo.Point{X: coords[0], Y: coords[1]}
		if vid >= len(venues) {
			venues = append(venues, make([]Venue, vid+1-len(venues))...)
		}
		v := &venues[vid]
		if v.CheckIns == 0 {
			// A venue's canonical point is the one its first row gives.
			v.Point = geo.Point{X: coords[2], Y: coords[3]}
		}
		v.CheckIns++
		checkIns = append(checkIns, CheckIn{UserID: uid, VenueID: vid, Point: fix})
	}
	if len(checkIns) == 0 {
		return nil, fmt.Errorf("dataset: no check-ins in input")
	}
	for vid := range venues {
		venues[vid].ID = vid
	}

	// Group the rows by user: row indices sorted by (user id, row), so
	// each user's positions keep their row order.
	order := make([]int, len(checkIns))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(checkIns[a].UserID, checkIns[b].UserID); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	ds := &Dataset{Name: name, CheckIns: checkIns, Venues: venues}
	// One backing array holds every user's positions, in group order.
	// Each object gets a window capped at its own length, so appending
	// to one object's positions cannot overwrite the next object's.
	positions := make([]geo.Point, len(order))
	// visited[vid] is the group number (from 1) of the last user
	// counted as a visitor of vid, so each user counts once per venue.
	visited := make([]int, len(venues))
	extent := geo.EmptyRect()
	group := 0
	for lo := 0; lo < len(order); {
		uid := checkIns[order[lo]].UserID
		group++
		hi := lo
		for ; hi < len(order) && checkIns[order[hi]].UserID == uid; hi++ {
			ci := &checkIns[order[hi]]
			positions[hi] = ci.Point
			if visited[ci.VenueID] != group {
				visited[ci.VenueID] = group
				venues[ci.VenueID].Visitors++
			}
		}
		o, err := object.New(uid, positions[lo:hi:hi])
		if err != nil {
			return nil, err
		}
		ds.Objects = append(ds.Objects, o)
		extent = extent.Union(o.MBR())
		lo = hi
	}
	ds.Extent = extent
	return ds, nil
}
