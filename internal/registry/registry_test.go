package registry

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/core"
)

// fitted builds a small fitted predictor; seed varies the weights so
// multi-model tests can tell models apart.
func fitted(t testing.TB, seed uint64) *core.Predictor {
	t.Helper()
	n := 160
	series := make([][]float64, 4)
	for c := range series {
		row := make([]float64, n)
		for i := range row {
			row[i] = 0.5 + 0.4*math.Sin(float64(i)/float64(5+c))
		}
		series[c] = row
	}
	p := core.NewPredictor(core.PredictorConfig{
		Scenario:  core.Mul,
		Window:    10,
		Horizon:   2,
		Epochs:    1,
		BatchSize: 8,
		Seed:      seed,
		Model:     core.Config{Channels: []int{4}, KernelSize: 2},
	})
	if err := p.Fit(series, 0); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestStorePublishLoadRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "models")
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := fitted(t, 1)
	v, err := st.Publish("cpu", p)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("first publish version = %d, want 1", v)
	}
	if v, err = st.Publish("cpu", p); err != nil || v != 2 {
		t.Fatalf("second publish = (%d, %v), want (2, nil)", v, err)
	}
	got, resolved, err := st.Load("cpu", 0)
	if err != nil {
		t.Fatal(err)
	}
	if resolved != 2 {
		t.Fatalf("latest load resolved v%d, want v2", resolved)
	}
	if got.Cfg.Window != p.Cfg.Window || got.Cfg.Horizon != p.Cfg.Horizon {
		t.Fatalf("round-tripped config %d/%d vs %d/%d",
			got.Cfg.Window, got.Cfg.Horizon, p.Cfg.Window, p.Cfg.Horizon)
	}
	if _, resolved, err = st.Load("cpu", 1); err != nil || resolved != 1 {
		t.Fatalf("pinned load = (v%d, %v), want (v1, nil)", resolved, err)
	}
	if _, _, err = st.Load("cpu", 9); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("missing version error = %v, want ErrUnknownModel", err)
	}
	if _, _, err = st.Load("ghost", 0); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("missing model error = %v, want ErrUnknownModel", err)
	}

	// Reopen from disk: the manifest is the source of truth.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if names := st2.Names(); len(names) != 1 || names[0] != "cpu" {
		t.Fatalf("reopened names = %v", names)
	}
	if vs := st2.Versions("cpu"); len(vs) != 2 || vs[0] != 1 || vs[1] != 2 {
		t.Fatalf("reopened versions = %v", vs)
	}
	if latest, ok := st2.Latest("cpu"); !ok || latest != 2 {
		t.Fatalf("reopened latest = (%d, %v)", latest, ok)
	}
}

// TestStoreLoadRefusesMalformedSnapshot: a version file whose model
// config no builder accepts, or whose target indexes past the normalizer,
// comes back from Load as an error — Load runs on the request path, where
// a panic would take the daemon down.
func TestStoreLoadRefusesMalformedSnapshot(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Publish("cpu", fitted(t, 1)); err != nil {
		t.Fatal(err)
	}
	path := st.versionPath("cpu", 1)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for pattern, bad := range map[string]string{
		`"InChannels":[1-9]\d*`:  `"InChannels":0`,
		`"Dilations":null,"Drop`: `"Dilations":[1,2],"Drop`,
		`"Channels":\[4\]`:       `"Channels":[-4]`,
		`"KernelSize":2`:         `"KernelSize":-1`,
		`"Dropout":0`:            `"Dropout":1.5`,
		`"target":0`:             `"target":4`,
	} {
		malformed := regexp.MustCompile(pattern).ReplaceAll(good, []byte(bad))
		if bytes.Equal(malformed, good) {
			t.Fatalf("%s matches nothing in the snapshot", pattern)
		}
		if err := os.WriteFile(path, malformed, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.Load("cpu", 1); err == nil {
			t.Errorf("%s: Load accepted the snapshot", bad)
		}
	}
}

func TestStoreRejectsHostileNames(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := fitted(t, 1)
	for _, name := range []string{"", "../escape", "a/b", ".hidden", "a b", string(make([]byte, 200))} {
		if _, err := st.Publish(name, p); err == nil {
			t.Errorf("hostile name %q accepted", name)
		}
	}
}

func TestCacheHitMissEviction(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if _, err := st.Publish(name, fitted(t, 7)); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCache(st, 2)

	ha, err := c.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	hb, err := c.Acquire("b")
	if err != nil {
		t.Fatal(err)
	}
	ha.Release()
	hb.Release()
	// Hit: same handle, no load.
	ha2, err := c.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	if ha2 != ha {
		t.Fatal("cache hit returned a different handle")
	}
	ha2.Release()
	st1 := c.Stats()
	if st1.Hits != 1 || st1.Misses != 2 || st1.Resident != 2 {
		t.Fatalf("stats after warm = %+v", st1)
	}

	// Third model evicts the LRU unpinned entry — "b" (its last acquire
	// is older than "a"'s).
	hc, err := c.Acquire("c")
	if err != nil {
		t.Fatal(err)
	}
	hc.Release()
	st2 := c.Stats()
	if st2.Evictions != 1 || st2.Resident != 2 {
		t.Fatalf("stats after eviction = %+v", st2)
	}
	if h, _ := c.Acquire("a"); h != ha {
		t.Fatal("recently-used entry was evicted instead of the LRU one")
	} else {
		h.Release()
	}

	// "b" reloads as a fresh entry (a miss).
	hb2, err := c.Acquire("b")
	if err != nil {
		t.Fatal(err)
	}
	if hb2 == hb {
		t.Fatal("evicted entry resurrected instead of reloaded")
	}
	hb2.Release()
}

func TestCachePinnedEntriesSurviveEviction(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if _, err := st.Publish(name, fitted(t, 3)); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCache(st, 1)
	ha, err := c.Acquire("a") // pinned: not released
	if err != nil {
		t.Fatal(err)
	}
	hb, err := c.Acquire("b")
	if err != nil {
		t.Fatal(err)
	}
	// "a" is pinned, so it must still be resident (transient overage).
	if got, _ := c.Acquire("a"); got != ha {
		t.Fatal("pinned entry was evicted")
	} else {
		got.Release()
	}
	hb.Release()
	ha.Release()
	// With the pin gone, the next insert converges back under the cap.
	if _, err := c.Acquire("c"); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Resident > 1 {
		t.Fatalf("resident = %d after pins released, want ≤ 1", st.Resident)
	}
}

func TestCachePicksUpNewVersions(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Publish("m", fitted(t, 1)); err != nil {
		t.Fatal(err)
	}
	c := NewCache(st, 4)
	h1, err := c.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	if h1.Version() != 1 {
		t.Fatalf("version = %d, want 1", h1.Version())
	}
	if _, err := st.Publish("m", fitted(t, 2)); err != nil {
		t.Fatal(err)
	}
	h2, err := c.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	if h2.Version() != 2 {
		t.Fatalf("post-publish acquire served v%d, want v2", h2.Version())
	}
	if h2.Predictor() == h1.Predictor() {
		t.Fatal("stale predictor served for the new version")
	}
	// The stale handle stays valid until released.
	if h1.Predictor() == nil {
		t.Fatal("outstanding stale handle invalidated")
	}
	h1.Release()
	h2.Release()
}

// TestCacheHitZeroAllocs pins the steady-state serving cost of the
// registry: resolving a resident model (Acquire + Release) allocates
// nothing, so multi-model fleet serving adds zero allocations per
// request once warm.
func TestCacheHitZeroAllocs(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Publish("hot", fitted(t, 1)); err != nil {
		t.Fatal(err)
	}
	c := NewCache(st, 2)
	h, err := c.Acquire("hot")
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	allocs := testing.AllocsPerRun(200, func() {
		h, err := c.Acquire("hot")
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocates %.1f objects per Acquire/Release, want 0", allocs)
	}
}
