package grid

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"pinocchio/internal/geo"
)

func randomItems(rng *rand.Rand, n int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Point: geo.Point{X: rng.Float64() * 80, Y: rng.Float64() * 60}, ID: i}
	}
	return items
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 8); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty: %v", err)
	}
	g, err := New(randomItems(rand.New(rand.NewSource(1)), 100), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 100 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestSinglePointDegenerate(t *testing.T) {
	g, err := New([]Item{{Point: geo.Point{X: 3, Y: 3}, ID: 7}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	g.SearchRect(geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 5, Y: 5}}, func(it Item) bool {
		got = append(got, it.ID)
		return true
	})
	if len(got) != 1 || got[0] != 7 {
		t.Errorf("got %v", got)
	}
	if nn, ok := g.Nearest(geo.Point{X: 100, Y: 100}); !ok || nn.ID != 7 {
		t.Errorf("Nearest = %v %v", nn, ok)
	}
}

func TestCollinearPoints(t *testing.T) {
	// All points on a horizontal line: zero-height bounds.
	items := make([]Item, 30)
	for i := range items {
		items[i] = Item{Point: geo.Point{X: float64(i), Y: 5}, ID: i}
	}
	g, err := New(items, 4)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	g.SearchCircle(geo.Point{X: 10, Y: 5}, 2.5, func(Item) bool {
		count++
		return true
	})
	if count != 5 { // x in {8,9,10,11,12}
		t.Errorf("circle found %d, want 5", count)
	}
}

func TestSearchRectMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	items := randomItems(rng, 600)
	g, err := New(items, 8)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 120; q++ {
		a := geo.Point{X: rng.Float64()*100 - 10, Y: rng.Float64()*80 - 10}
		b := geo.Point{X: rng.Float64()*100 - 10, Y: rng.Float64()*80 - 10}
		r := geo.RectFromPoints([]geo.Point{a, b})
		var got []int
		g.SearchRect(r, func(it Item) bool {
			got = append(got, it.ID)
			return true
		})
		sort.Ints(got)
		var want []int
		for _, it := range items {
			if r.ContainsPoint(it.Point) {
				want = append(want, it.ID)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d, want %d", q, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d: mismatch at %d", q, i)
			}
		}
	}
}

func TestSearchCircleMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	items := randomItems(rng, 600)
	g, _ := New(items, 8)
	for q := 0; q < 120; q++ {
		c := geo.Point{X: rng.Float64() * 80, Y: rng.Float64() * 60}
		radius := rng.Float64() * 25
		got := map[int]bool{}
		g.SearchCircle(c, radius, func(it Item) bool {
			got[it.ID] = true
			return true
		})
		for _, it := range items {
			if (c.Dist(it.Point) <= radius) != got[it.ID] {
				t.Fatalf("query %d: item %d misclassified", q, it.ID)
			}
		}
	}
	// Negative radius finds nothing.
	found := false
	g.SearchCircle(geo.Point{X: 0, Y: 0}, -1, func(Item) bool { found = true; return true })
	if found {
		t.Error("negative radius should find nothing")
	}
}

func TestEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	g, _ := New(randomItems(rng, 200), 8)
	count := 0
	completed := g.SearchRect(geo.Rect{Min: geo.Point{X: -1, Y: -1}, Max: geo.Point{X: 100, Y: 100}}, func(Item) bool {
		count++
		return count < 3
	})
	if completed || count != 3 {
		t.Errorf("early stop: completed=%v count=%d", completed, count)
	}
}

func TestNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	items := randomItems(rng, 400)
	g, _ := New(items, 8)
	for q := 0; q < 200; q++ {
		query := geo.Point{X: rng.Float64()*120 - 20, Y: rng.Float64()*100 - 20}
		nn, ok := g.Nearest(query)
		if !ok {
			t.Fatal("Nearest found nothing")
		}
		bestD := query.Dist(nn.Point)
		for _, it := range items {
			if query.Dist(it.Point) < bestD-1e-12 {
				t.Fatalf("query %v: item %d at %v beats reported %v",
					query, it.ID, query.Dist(it.Point), bestD)
			}
		}
	}
}

func TestQueryOutsideBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	g, _ := New(randomItems(rng, 50), 8)
	count := 0
	g.SearchRect(geo.Rect{Min: geo.Point{X: 500, Y: 500}, Max: geo.Point{X: 600, Y: 600}}, func(Item) bool {
		count++
		return true
	})
	if count != 0 {
		t.Errorf("disjoint query found %d", count)
	}
}

// TestUnboundedQuery: a rect with infinite sides (an object's NIB box
// when it has no finite NIB radius) returns every item.
func TestUnboundedQuery(t *testing.T) {
	g, _ := New(randomItems(rand.New(rand.NewSource(40)), 50), 8)
	inf := math.Inf(1)
	count := 0
	g.SearchRect(geo.Rect{Min: geo.Point{X: -inf, Y: -inf}, Max: geo.Point{X: inf, Y: inf}}, func(Item) bool {
		count++
		return true
	})
	if count != 50 {
		t.Errorf("unbounded query found %d of 50", count)
	}
}
