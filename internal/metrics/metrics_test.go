package metrics

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// buildFixtureRegistry assembles one of everything the render path supports,
// including the escaping edge cases the exposition format defines.
func buildFixtureRegistry() *Registry {
	r := NewRegistry()

	c := r.Counter("la_ops_total", "Operations by kind.", L("op", "acquire"))
	c.Add(41)
	c.Inc()
	r.Counter("la_ops_total", "Operations by kind.", L("op", "release")).Add(7)
	r.CounterFunc("la_ops_total", "Operations by kind.", func() uint64 { return 3 }, L("op", "renew"))

	g := r.Gauge("la_load_factor", "Occupied fraction.")
	g.Set(0.75)
	g.Add(-0.25)
	r.GaugeFunc("la_epoch", "Cluster epoch.", func() float64 { return 12 })

	h := r.Histogram("la_acquire_latency_seconds", "Acquire latency.", []float64{0.001, 0.01, 0.1})
	h.Observe(500 * time.Microsecond)
	h.Observe(500 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(2 * time.Second) // lands in +Inf

	r.Counter("la_escapes_total", "help with \\ backslash and\nnewline.",
		L("path", `C:\tmp`), L("msg", "say \"hi\"\nok"))

	r.Sampler("la_partition_active", "Active leases per partition.", TypeGauge, func(emit Emit) {
		emit(11, L("partition", "0"))
		emit(3, L("partition", "5"))
	})
	return r
}

// TestRenderGolden pins the full exposition output: HELP/TYPE lines, label
// escaping, histogram _bucket/_sum/_count shape, family sort order.
func TestRenderGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildFixtureRegistry().Render(&buf); err != nil {
		t.Fatalf("render: %v", err)
	}
	golden := filepath.Join("testdata", "render.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("render mismatch\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestHistogramInvariants checks the exposition invariants directly: le
// buckets are cumulative and non-decreasing, the +Inf bucket equals _count,
// and _sum carries the observed total in seconds.
func TestHistogramInvariants(t *testing.T) {
	var buf bytes.Buffer
	if err := buildFixtureRegistry().Render(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(&buf)
	if err != nil {
		t.Fatalf("parse rendered output: %v", err)
	}

	var prev float64
	var infCount float64
	bucketCount := 0
	for _, s := range samples {
		if s.Name != "la_acquire_latency_seconds_bucket" {
			continue
		}
		bucketCount++
		if s.Value < prev {
			t.Errorf("bucket le=%s is %v, below previous %v (not cumulative)", s.Label("le"), s.Value, prev)
		}
		prev = s.Value
		if s.Label("le") == "+Inf" {
			infCount = s.Value
		}
	}
	if bucketCount != 4 {
		t.Fatalf("got %d bucket samples, want 4 (3 bounds + +Inf)", bucketCount)
	}
	count, ok := Find(samples, "la_acquire_latency_seconds_count")
	if !ok || count != 4 {
		t.Fatalf("_count = %v ok=%v, want 4", count, ok)
	}
	if infCount != count {
		t.Errorf("+Inf bucket %v != _count %v", infCount, count)
	}
	sum, ok := Find(samples, "la_acquire_latency_seconds_sum")
	wantSum := (2*500*time.Microsecond + 5*time.Millisecond + 2*time.Second).Seconds()
	if !ok || math.Abs(sum-wantSum) > 1e-9 {
		t.Errorf("_sum = %v, want %v", sum, wantSum)
	}
}

// TestParseRoundTrip: everything Render emits, ParseText reads back —
// including escaped label values.
func TestParseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := buildFixtureRegistry().Render(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(&buf)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if v, ok := Find(samples, "la_ops_total", L("op", "acquire")); !ok || v != 42 {
		t.Errorf("la_ops_total{op=acquire} = %v ok=%v, want 42", v, ok)
	}
	if got := Sum(samples, "la_ops_total"); got != 52 {
		t.Errorf("Sum(la_ops_total) = %v, want 52", got)
	}
	v, ok := Find(samples, "la_escapes_total", L("path", `C:\tmp`))
	if !ok || v != 0 {
		t.Errorf("escaped-label sample not found back (ok=%v v=%v)", ok, v)
	}
	for _, s := range samples {
		if s.Name == "la_escapes_total" && s.Labels["msg"] != "say \"hi\"\nok" {
			t.Errorf("msg label round-trip = %q", s.Labels["msg"])
		}
	}
	if v, ok := Find(samples, "la_partition_active", L("partition", "5")); !ok || v != 3 {
		t.Errorf("sampler series = %v ok=%v, want 3", v, ok)
	}
}

func TestSampleQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "t", []float64{0.001, 0.01, 0.1})
	for i := 0; i < 90; i++ {
		h.Observe(500 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(50 * time.Millisecond)
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p50, ok := SampleQuantile(samples, "lat_seconds", 0.5)
	if !ok || p50 > 0.001 {
		t.Errorf("p50 = %v ok=%v, want <= 1ms", p50, ok)
	}
	p99, ok := SampleQuantile(samples, "lat_seconds", 0.99)
	if !ok || p99 < 0.01 || p99 > 0.1 {
		t.Errorf("p99 = %v ok=%v, want in (10ms, 100ms]", p99, ok)
	}
	if _, ok := SampleQuantile(nil, "lat_seconds", 0.5); ok {
		t.Error("quantile over no samples reported ok")
	}
}

// TestConcurrentScrape hammers every instrument kind while scraping, then
// checks the final render matches the exact totals: catches torn reads and
// (under -race) any unsynchronized state in the render path.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "t")
	g := r.Gauge("load", "t")
	h := r.Histogram("lat_seconds", "t", LatencyBuckets())

	const workers, perWorker = 8, 5000
	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapes.Add(1)
		go func() {
			defer scrapes.Done()
			var last float64
			for {
				select {
				case <-stop:
					return
				default:
				}
				var buf bytes.Buffer
				if err := r.Render(&buf); err != nil {
					t.Errorf("render: %v", err)
					return
				}
				samples, err := ParseText(&buf)
				if err != nil {
					t.Errorf("parse: %v", err)
					return
				}
				v, ok := Find(samples, "ops_total")
				if !ok {
					t.Error("ops_total missing mid-scrape")
					return
				}
				if v < last {
					t.Errorf("counter went backwards: %v -> %v", last, v)
					return
				}
				last = v
			}
		}()
	}

	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(time.Duration(i%1000) * time.Microsecond)
			}
		}()
	}
	writers.Wait()
	close(stop)
	scrapes.Wait()

	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := Find(samples, "ops_total"); v != workers*perWorker {
		t.Errorf("ops_total = %v, want %d", v, workers*perWorker)
	}
	if v, _ := Find(samples, "load"); v != workers*perWorker {
		t.Errorf("load = %v, want %d", v, workers*perWorker)
	}
	if v, _ := Find(samples, "lat_seconds_count"); v != workers*perWorker {
		t.Errorf("lat_seconds_count = %v, want %d", v, workers*perWorker)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(0.001, 10, 3)
	want := []float64{0.001, 0.01, 0.1}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Errorf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
	if !strings.Contains(ContentType, "version=0.0.4") {
		t.Error("content type lost its exposition version")
	}
}

func TestRegistryMetadataConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "t")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering x_total as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "t")
}

// TestRenderWhileRegistering: a scrape racing the first use of a new label
// set (a lazily registered series) must not read the series being appended.
func TestRenderWhileRegistering(t *testing.T) {
	r := NewRegistry()
	r.Counter("la_unavailable_total", "503s by cause.", Label{Name: "code", Value: "full"})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var b bytes.Buffer
		for {
			select {
			case <-stop:
				return
			default:
			}
			b.Reset()
			if err := r.Render(&b); err != nil {
				t.Errorf("Render: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		r.Counter("la_unavailable_total", "503s by cause.", Label{Name: "code", Value: strconv.Itoa(i)}).Inc()
	}
	close(stop)
	wg.Wait()
}
