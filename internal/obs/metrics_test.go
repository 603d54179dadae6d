package obs

import (
	"reflect"
	"strings"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if r.Counter("x") != c {
		t.Fatal("re-registration returned a different handle")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth")
	g.Add(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", 10, 100, 1000)
	for _, v := range []int64{5, 10, 11, 100, 500, 99999} {
		h.Observe(v)
	}
	if got := h.count.Load(); got != 6 {
		t.Fatalf("count = %d, want 6", got)
	}
	if got := h.sum.Load(); got != 5+10+11+100+500+99999 {
		t.Fatalf("sum = %d", got)
	}
	m, _ := r.Snapshot().Get("lat")
	// Bounds are inclusive upper bounds; the last bucket is overflow.
	want := []int64{2, 2, 1, 1}
	if !reflect.DeepEqual(m.Buckets, want) {
		t.Fatalf("buckets = %v, want %v", m.Buckets, want)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("gauge re-registration of a counter name did not panic")
		}
	}()
	r.Gauge("m")
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds did not panic")
		}
	}()
	r.Histogram("h", 10, 10)
}

func TestSnapshotIsolation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(1)
	snap := r.Snapshot()
	c.Add(10)
	if m, _ := snap.Get("c"); m.Value != 1 {
		t.Fatalf("snapshot moved with the live counter: %d", m.Value)
	}
}

func TestDiff(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", 10, 100)

	c.Add(5)
	g.Add(3)
	h.Observe(7)
	before := r.Snapshot()

	c.Add(2)
	g.Add(6)
	h.Observe(50)
	h.Observe(500)
	d := r.Snapshot().Diff(before)

	if m, _ := d.Get("c"); m.Value != 2 {
		t.Errorf("counter diff = %d, want 2", m.Value)
	}
	// Gauges are levels: the diff keeps the current reading.
	if m, _ := d.Get("g"); m.Value != 9 {
		t.Errorf("gauge diff = %d, want current level 9", m.Value)
	}
	m, _ := d.Get("h")
	if m.Count != 2 || m.Sum != 550 {
		t.Errorf("histogram diff count=%d sum=%d, want 2/550", m.Count, m.Sum)
	}
	if want := []int64{0, 1, 1}; !reflect.DeepEqual(m.Buckets, want) {
		t.Errorf("histogram diff buckets = %v, want %v", m.Buckets, want)
	}
}

func TestDiffAbsentMetricUsesZero(t *testing.T) {
	r := NewRegistry()
	before := r.Snapshot()
	r.Counter("late").Add(4)
	d := r.Snapshot().Diff(before)
	if m, _ := d.Get("late"); m.Value != 4 {
		t.Fatalf("late-registered counter diff = %d, want 4", m.Value)
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(2)
	r.Gauge("a.level").Add(-1)
	r.Histogram("c.hist", 1, 2).Observe(2)

	var one, two strings.Builder
	snap := r.Snapshot()
	if err := snap.WriteJSON(&one); err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteJSON(&two); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Fatal("two encodings of one snapshot differ")
	}
	want := `{"a.level":{"kind":"gauge","value":-1},` +
		`"b.count":{"kind":"counter","value":2},` +
		`"c.hist":{"kind":"histogram","count":1,"sum":2,"bounds":[1,2],"buckets":[0,1,0]}}` + "\n"
	if got := one.String(); got != want {
		t.Fatalf("encoding:\n got %s want %s", got, want)
	}
}
