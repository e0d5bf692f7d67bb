package dataset

import (
	"bytes"
	"errors"
	"math/rand"

	"pinocchio/internal/geo"
	"strings"
	"testing"
)

// smallConfig is a fast but structurally faithful configuration.
func smallConfig() Config {
	cfg := FoursquareLike()
	cfg.Users = 200
	cfg.Venues = 400
	cfg.MeanCheckins = 20
	cfg.MaxCheckins = 120
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := FoursquareLike().Validate(); err != nil {
		t.Errorf("FoursquareLike invalid: %v", err)
	}
	if err := GowallaLike().Validate(); err != nil {
		t.Errorf("GowallaLike invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Users = 0 },
		func(c *Config) { c.Venues = -1 },
		func(c *Config) { c.MinCheckins = 0 },
		func(c *Config) { c.MaxCheckins = c.MinCheckins - 1 },
		func(c *Config) { c.MeanCheckins = c.MaxCheckins + 1 },
		func(c *Config) { c.MeanCheckins = c.MinCheckins - 1 },
		func(c *Config) { c.WidthKm = 0 },
		func(c *Config) { c.HeightKm = -1 },
		func(c *Config) { c.Hotspots = 0 },
		func(c *Config) { c.HotspotSpreadKm = 0 },
		func(c *Config) { c.MinAnchors = 0 },
		func(c *Config) { c.MaxAnchors = 0 },
		func(c *Config) { c.CheckinDecayKm = 0 },
	}
	for i, mut := range mutations {
		cfg := FoursquareLike()
		mut(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("mutation %d should be invalid", i)
		}
		if _, err := Generate(cfg); err == nil {
			t.Errorf("Generate should reject mutation %d", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := smallConfig()
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCheckIns() != b.TotalCheckIns() {
		t.Fatalf("check-in counts differ: %d vs %d", a.TotalCheckIns(), b.TotalCheckIns())
	}
	for i := range a.Venues {
		if a.Venues[i] != b.Venues[i] {
			t.Fatalf("venue %d differs", i)
		}
	}
	for i := range a.Objects {
		if a.Objects[i].N() != b.Objects[i].N() {
			t.Fatalf("object %d position count differs", i)
		}
	}
	// Different seed: different data.
	cfg.Seed = 99
	c, _ := Generate(cfg)
	if c.TotalCheckIns() == a.TotalCheckIns() {
		t.Log("same total check-ins under different seed (possible but unlikely)")
	}
}

func TestGenerateStatisticalShape(t *testing.T) {
	cfg := smallConfig()
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Objects) != cfg.Users {
		t.Fatalf("objects %d, want %d", len(ds.Objects), cfg.Users)
	}
	if len(ds.Venues) != cfg.Venues {
		t.Fatalf("venues %d, want %d", len(ds.Venues), cfg.Venues)
	}
	totalPos := 0
	minN, maxN := 1<<30, 0
	for _, o := range ds.Objects {
		n := o.N()
		totalPos += n
		if n < minN {
			minN = n
		}
		if n > maxN {
			maxN = n
		}
		if n < cfg.MinCheckins || n > cfg.MaxCheckins {
			t.Fatalf("object with %d check-ins outside [%d, %d]", n, cfg.MinCheckins, cfg.MaxCheckins)
		}
	}
	if totalPos != ds.TotalCheckIns() {
		t.Errorf("positions %d != check-ins %d", totalPos, ds.TotalCheckIns())
	}
	mean := float64(totalPos) / float64(len(ds.Objects))
	// The mean target is pre-truncation: capping the heavy upper tail
	// at MaxCheckins pulls the realized mean below it.
	if mean < float64(cfg.MeanCheckins)*0.4 || mean > float64(cfg.MeanCheckins)*1.4 {
		t.Errorf("mean check-ins %.1f far from target %d", mean, cfg.MeanCheckins)
	}
	// Skew: the max should be well above the mean.
	if float64(maxN) < 2*mean {
		t.Errorf("distribution not skewed: max %d vs mean %.1f", maxN, mean)
	}
	// Ground truth consistency: venue check-ins sum to total.
	sum := 0
	for _, v := range ds.Venues {
		sum += v.CheckIns
	}
	if sum != ds.TotalCheckIns() {
		t.Errorf("venue check-ins sum %d != total %d", sum, ds.TotalCheckIns())
	}
	// Popularity skew: top decile of venues should hold a large share.
	counts := make([]int, len(ds.Venues))
	for i, v := range ds.Venues {
		counts[i] = v.CheckIns
	}
	// positions fall inside the frame
	for _, o := range ds.Objects {
		if !ds.Extent.ContainsRect(o.MBR()) {
			t.Fatalf("object MBR %v outside extent %v", o.MBR(), ds.Extent)
		}
	}
}

// TestActivityRegionOverlap verifies the property §4.3 measures on the
// real data: the average object covers a large share (tens of percent)
// of each dimension, so MBRs overlap heavily.
func TestActivityRegionOverlap(t *testing.T) {
	ds, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sumW, sumH := 0.0, 0.0
	multi := 0
	for _, o := range ds.Objects {
		sumW += o.MBR().Width()
		sumH += o.MBR().Height()
		if o.N() > 1 {
			multi++
		}
	}
	avgW := sumW / float64(len(ds.Objects))
	avgH := sumH / float64(len(ds.Objects))
	fw := avgW / ds.Extent.Width()
	fh := avgH / ds.Extent.Height()
	if fw < 0.25 || fh < 0.25 {
		t.Errorf("activity regions too small: %.0f%% x %.0f%% of extent (paper: ≈55%%)",
			fw*100, fh*100)
	}
	if multi < len(ds.Objects)*9/10 {
		t.Errorf("only %d/%d objects have multiple positions", multi, len(ds.Objects))
	}
}

func TestScaled(t *testing.T) {
	cfg := FoursquareLike()
	s := Scaled(cfg, 0.1)
	if s.Users != cfg.Users/10 || s.Venues != cfg.Venues/10 {
		t.Errorf("scaled counts: %d users, %d venues", s.Users, s.Venues)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("scaled config invalid: %v", err)
	}
	if !strings.Contains(s.Name, cfg.Name) {
		t.Errorf("scaled name %q", s.Name)
	}
	// Out-of-range factors are identity; factors above 1 grow the
	// preset for scale benchmarks.
	if got := Scaled(cfg, 0); got.Users != cfg.Users {
		t.Error("factor 0 should be identity")
	}
	if got := Scaled(cfg, -3); got.Users != cfg.Users {
		t.Error("negative factor should be identity")
	}
	up := Scaled(cfg, 2)
	if up.Users != 2*cfg.Users || up.Venues != 2*cfg.Venues {
		t.Errorf("factor 2: %d users, %d venues (want %d, %d)",
			up.Users, up.Venues, 2*cfg.Users, 2*cfg.Venues)
	}
	if err := up.Validate(); err != nil {
		t.Errorf("grown config invalid: %v", err)
	}
}

func TestSampleCandidates(t *testing.T) {
	ds, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	cs, err := SampleCandidates(ds, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Points) != 50 || len(cs.Truth) != 50 || len(cs.VenueIDs) != 50 {
		t.Fatalf("sizes: %d %d %d", len(cs.Points), len(cs.Truth), len(cs.VenueIDs))
	}
	seen := map[int]bool{}
	for i, vid := range cs.VenueIDs {
		if seen[vid] {
			t.Fatalf("venue %d sampled twice", vid)
		}
		seen[vid] = true
		if ds.Venues[vid].Visitors != cs.Truth[i] {
			t.Fatalf("truth mismatch for venue %d", vid)
		}
		if ds.Venues[vid].Point != cs.Points[i] {
			t.Fatalf("point mismatch for venue %d", vid)
		}
	}
	// Weighted sampling should favor popular venues: mean check-ins of
	// the sampled venues should exceed the population mean.
	popMean, sampleMean := 0.0, 0.0
	for _, v := range ds.Venues {
		popMean += float64(v.CheckIns)
	}
	popMean /= float64(len(ds.Venues))
	for _, vid := range cs.VenueIDs {
		sampleMean += float64(ds.Venues[vid].CheckIns)
	}
	sampleMean /= float64(len(cs.VenueIDs))
	if sampleMean <= popMean {
		t.Errorf("sample mean %.1f not above population mean %.1f", sampleMean, popMean)
	}

	if _, err := SampleCandidates(ds, 0, rng); !errors.Is(err, ErrNotEnough) {
		t.Errorf("m=0: %v", err)
	}
	if _, err := SampleCandidates(ds, len(ds.Venues)+1, rng); !errors.Is(err, ErrNotEnough) {
		t.Errorf("m beyond venues: %v", err)
	}
}

func TestRelevantTopK(t *testing.T) {
	cs2 := &CandidateSet{
		Points: make([]geo.Point, 5),
		Truth:  []int{5, 9, 1, 9, 3},
	}
	got := cs2.RelevantTopK(3)
	want := []int{1, 3, 0} // truths 9, 9 (tie by index), 5
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RelevantTopK = %v, want %v", got, want)
		}
	}
	if len(cs2.RelevantTopK(100)) != 5 {
		t.Error("k beyond m should return all")
	}
	if len(cs2.RelevantTopK(-1)) != 0 {
		t.Error("negative k should return none")
	}
}

func TestSampleObjects(t *testing.T) {
	ds, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	objs, err := SampleObjects(ds, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 50 {
		t.Fatalf("sampled %d", len(objs))
	}
	seen := map[int]bool{}
	for _, o := range objs {
		if seen[o.ID] {
			t.Fatalf("object %d sampled twice", o.ID)
		}
		seen[o.ID] = true
	}
	if _, err := SampleObjects(ds, 0, rng); !errors.Is(err, ErrNotEnough) {
		t.Errorf("count=0: %v", err)
	}
	if _, err := SampleObjects(ds, len(ds.Objects)+1, rng); !errors.Is(err, ErrNotEnough) {
		t.Errorf("too many: %v", err)
	}
}

func TestGroupByN(t *testing.T) {
	ds, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	groups := GroupByN(ds.Objects)
	if len(groups) != 5 {
		t.Fatalf("groups %d", len(groups))
	}
	total := 0
	for _, g := range groups {
		total += len(g.Objects)
		for _, o := range g.Objects {
			if !g.Contains(o.N()) {
				t.Fatalf("object with n=%d in group [%d,%d)", o.N(), g.Lo, g.Hi)
			}
		}
	}
	if total != len(ds.Objects) {
		t.Errorf("grouped %d of %d objects", total, len(ds.Objects))
	}
	// Unbounded last group.
	last := groups[len(groups)-1]
	if !last.Contains(1000000) {
		t.Error("last group should be unbounded")
	}
}

func TestResampleNAndFilterMinN(t *testing.T) {
	ds, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	rich := FilterMinN(ds.Objects, 30)
	for _, o := range rich {
		if o.N() < 30 {
			t.Fatalf("FilterMinN kept n=%d", o.N())
		}
	}
	inst := ResampleN(rich, 10, rng)
	if len(inst) != len(rich) {
		t.Fatalf("ResampleN dropped objects: %d of %d", len(inst), len(rich))
	}
	byID := map[int][]int{}
	for _, o := range rich {
		for i := range o.Positions {
			byID[o.ID] = append(byID[o.ID], i)
		}
	}
	for i, o := range inst {
		if o.N() != 10 {
			t.Fatalf("instance has n=%d", o.N())
		}
		if o.ID != rich[i].ID {
			t.Fatalf("instance ID mismatch")
		}
		// Every resampled position must come from the original.
		orig := map[geo.Point]bool{}
		for _, p := range rich[i].Positions {
			orig[p] = true
		}
		for _, p := range o.Positions {
			if !orig[p] {
				t.Fatalf("position %v not from original object", p)
			}
		}
	}
	// Objects with fewer than n positions are skipped.
	few := ResampleN(ds.Objects, 100000, rng)
	if len(few) != 0 {
		t.Errorf("huge n should keep nothing, got %d", len(few))
	}
}

func TestCSVRoundTrip(t *testing.T) {
	cfg := smallConfig()
	cfg.Users = 40
	cfg.Venues = 80
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, "roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalCheckIns() != ds.TotalCheckIns() {
		t.Fatalf("check-ins %d vs %d", back.TotalCheckIns(), ds.TotalCheckIns())
	}
	if len(back.Objects) != len(ds.Objects) {
		t.Fatalf("objects %d vs %d", len(back.Objects), len(ds.Objects))
	}
	for i, o := range ds.Objects {
		if back.Objects[i].N() != o.N() {
			t.Fatalf("object %d: n %d vs %d", i, back.Objects[i].N(), o.N())
		}
	}
	for i, v := range ds.Venues {
		if back.Venues[i].CheckIns != v.CheckIns {
			t.Fatalf("venue %d: check-ins %d vs %d", i, back.Venues[i].CheckIns, v.CheckIns)
		}
		if back.Venues[i].Visitors != v.Visitors {
			t.Fatalf("venue %d: visitors %d vs %d", i, back.Venues[i].Visitors, v.Visitors)
		}
		if v.CheckIns > 0 && back.Venues[i].Point.Dist(v.Point) > 1e-5 {
			t.Fatalf("venue %d: point %v vs %v", i, back.Venues[i].Point, v.Point)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"empty", ""},
		{"wrong header", "a,b,c,d,e,f\n1,2,3,4,5,6\n"},
		{"bad user id", "user_id,venue_id,x_km,y_km,venue_x_km,venue_y_km\nxx,0,1,1,1,1\n"},
		{"bad venue id", "user_id,venue_id,x_km,y_km,venue_x_km,venue_y_km\n0,xx,1,1,1,1\n"},
		{"bad x", "user_id,venue_id,x_km,y_km,venue_x_km,venue_y_km\n0,0,oops,1,1,1\n"},
		{"bad y", "user_id,venue_id,x_km,y_km,venue_x_km,venue_y_km\n0,0,1,oops,1,1\n"},
		{"negative id", "user_id,venue_id,x_km,y_km,venue_x_km,venue_y_km\n-1,0,1,1,1,1\n"},
		{"wrong field count", "user_id,venue_id,x_km,y_km,venue_x_km,venue_y_km\n0,0,1\n"},
		{"no rows", "user_id,venue_id,x_km,y_km,venue_x_km,venue_y_km\n"},
		{"NaN x", "user_id,venue_id,x_km,y_km,venue_x_km,venue_y_km\n0,0,NaN,1,1,1\n"},
		{"Inf y", "user_id,venue_id,x_km,y_km,venue_x_km,venue_y_km\n0,0,1,Inf,1,1\n"},
		{"-Infinity venue x", "user_id,venue_id,x_km,y_km,venue_x_km,venue_y_km\n0,0,1,1,-Infinity,1\n"},
		{"NaN venue y on a later row", "user_id,venue_id,x_km,y_km,venue_x_km,venue_y_km\n0,0,1,1,1,1\n1,1,2,2,2,nan\n"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(tt.data), "x"); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestReadCSVRejectsHugeIDs(t *testing.T) {
	data := "user_id,venue_id,x_km,y_km,venue_x_km,venue_y_km\n0,2000000000,1,1,1,1\n"
	if _, err := ReadCSV(strings.NewReader(data), "x"); err == nil {
		t.Error("implausibly large venue id should be rejected")
	}
	data = "user_id,venue_id,x_km,y_km,venue_x_km,venue_y_km\n2000000000,0,1,1,1,1\n"
	if _, err := ReadCSV(strings.NewReader(data), "x"); err == nil {
		t.Error("implausibly large user id should be rejected")
	}
}
