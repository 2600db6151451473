package server

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/ifair"
	"repro/internal/mat"
)

// testModel builds a small deterministic valid model.
func testModel(k, n int) *ifair.Model {
	protos := mat.NewDense(k, n)
	for i := 0; i < k; i++ {
		for j := 0; j < n; j++ {
			protos.Set(i, j, float64(i)+0.1*float64(j))
		}
	}
	alpha := make([]float64, n)
	for j := range alpha {
		alpha[j] = 1
	}
	return &ifair.Model{Prototypes: protos, Alpha: alpha, P: 2, Kernel: ifair.ExpKernel, Loss: 0.5}
}

// writeModelFile encodes a model under dir with the given file name.
func writeModelFile(t *testing.T, dir, name string, m *ifair.Model) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Encode(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseModelFileName(t *testing.T) {
	cases := []struct {
		base    string
		name    string
		version int
		ok      bool
	}{
		{"credit.json", "credit", 1, true},
		{"credit@v3.json", "credit", 3, true},
		{"a-b_c.json", "a-b_c", 1, true},
		{"credit@3.json", "", 0, false},
		{"credit@v0.json", "", 0, false},
		{"credit@vx.json", "", 0, false},
		{"@v1.json", "", 0, false},
		{".json", "", 0, false},
		{"notes.txt", "", 0, false},
	}
	for _, c := range cases {
		name, version, ok := parseModelFileName(c.base)
		if name != c.name || version != c.version || ok != c.ok {
			t.Errorf("parse(%q) = (%q, %d, %v), want (%q, %d, %v)",
				c.base, name, version, ok, c.name, c.version, c.ok)
		}
	}
}

func TestRegistryLoadAndVersions(t *testing.T) {
	dir := t.TempDir()
	writeModelFile(t, dir, "credit.json", testModel(2, 3))
	writeModelFile(t, dir, "credit@v2.json", testModel(4, 3))
	writeModelFile(t, dir, "hiring@v5.json", testModel(3, 6))
	if err := os.WriteFile(filepath.Join(dir, "ignore.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	r := NewRegistry(dir)
	loaded, reused, err := r.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 3 || reused != 0 {
		t.Fatalf("loaded=%d reused=%d, want 3/0", loaded, reused)
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d, want 3", r.Len())
	}
	latest, ok := r.Get("credit")
	if !ok || latest.Version != 2 || latest.Model.K() != 4 {
		t.Fatalf("Get(credit) = %+v, want version 2 with K=4", latest)
	}
	v1, ok := r.GetVersion("credit", 1)
	if !ok || v1.Model.K() != 2 {
		t.Fatal("GetVersion(credit, 1) missing")
	}
	if _, ok := r.GetVersion("credit", 9); ok {
		t.Fatal("GetVersion(credit, 9) should miss")
	}
	if _, ok := r.Get("absent"); ok {
		t.Fatal("Get(absent) should miss")
	}

	infos := r.List()
	if len(infos) != 3 {
		t.Fatalf("List returned %d entries, want 3", len(infos))
	}
	if infos[0].Name != "credit" || infos[0].Version != 1 || infos[0].Latest {
		t.Fatalf("List[0] = %+v, want credit v1 not latest", infos[0])
	}
	if infos[1].Name != "credit" || !infos[1].Latest {
		t.Fatalf("List[1] = %+v, want credit v2 latest", infos[1])
	}
}

func TestRegistryReloadPicksUpChanges(t *testing.T) {
	dir := t.TempDir()
	path := writeModelFile(t, dir, "m.json", testModel(2, 3))
	r := NewRegistry(dir)
	if _, _, err := r.Reload(); err != nil {
		t.Fatal(err)
	}
	first, _ := r.Get("m")

	// Unchanged file: second reload reuses the decoded entry.
	_, reused, err := r.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if reused != 1 {
		t.Fatalf("reused = %d, want 1", reused)
	}
	same, _ := r.Get("m")
	if same != first {
		t.Fatal("unchanged file was re-decoded")
	}

	// Changed file (bump mtime so change detection can't miss it).
	writeModelFile(t, dir, "m.json", testModel(5, 3))
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := r.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 1 {
		t.Fatalf("loaded = %d, want 1", loaded)
	}
	changed, _ := r.Get("m")
	if changed.Model.K() != 5 {
		t.Fatalf("K = %d after reload, want 5", changed.Model.K())
	}

	// New and removed files.
	writeModelFile(t, dir, "extra.json", testModel(2, 2))
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Reload(); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get("m"); ok {
		t.Fatal("removed model still served")
	}
	if _, ok := r.Get("extra"); !ok {
		t.Fatal("new model not served")
	}
}

func TestRegistryCorruptFileDoesNotPoisonOthers(t *testing.T) {
	dir := t.TempDir()
	writeModelFile(t, dir, "good.json", testModel(2, 3))
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(dir)
	loaded, _, err := r.Reload()
	if err == nil {
		t.Fatal("expected an error mentioning the corrupt file")
	}
	if loaded != 1 {
		t.Fatalf("loaded = %d, want the good model", loaded)
	}
	if _, ok := r.Get("good"); !ok {
		t.Fatal("good model should still serve")
	}
	if _, ok := r.Get("bad"); ok {
		t.Fatal("corrupt model should not serve")
	}
}

func TestRegistryMissingDir(t *testing.T) {
	r := NewRegistry(filepath.Join(t.TempDir(), "nope"))
	if _, _, err := r.Reload(); err == nil {
		t.Fatal("expected error for missing directory")
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	dir := t.TempDir()
	writeModelFile(t, dir, "m.json", testModel(2, 3))
	r := NewRegistry(dir)
	if _, _, err := r.Reload(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, ok := r.Get("m"); !ok {
					t.Error("model disappeared during reload")
					return
				}
				r.List()
			}
		}()
	}
	for i := 0; i < 10; i++ {
		if _, _, err := r.Reload(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

func TestRegistryWatchReloads(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry(dir)
	if _, _, err := r.Reload(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Watch(ctx, 5*time.Millisecond, t.Logf)
	}()
	// Drop a model in after the watcher starts; it should appear.
	writeModelFile(t, dir, "late.json", testModel(2, 2))
	deadline := time.After(2 * time.Second)
	for {
		if _, ok := r.Get("late"); ok {
			break
		}
		select {
		case <-deadline:
			t.Fatal("watcher never picked up the new model")
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	<-done
}

// TestRegistryKeepsLastGoodOnCorruptReload is the hot-reload regression
// test: a model that loaded once must keep serving even when its file is
// later truncated mid-redeploy, and the failure must be counted.
func TestRegistryKeepsLastGoodOnCorruptReload(t *testing.T) {
	dir := t.TempDir()
	path := writeModelFile(t, dir, "credit@v2.json", testModel(3, 4))
	reg := NewRegistry(dir)
	if _, _, err := reg.Reload(); err != nil {
		t.Fatalf("initial load: %v", err)
	}
	want, ok := reg.Get("credit")
	if !ok {
		t.Fatal("model not loaded")
	}

	// Truncate the JSON mid-"redeploy" (also bumps mtime/size, so the
	// reload cannot take the unchanged-file shortcut).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	_, reused, err := reg.Reload()
	if err == nil {
		t.Fatal("reload of a truncated file reported no error")
	}
	if reused != 1 {
		t.Fatalf("reused = %d, want the last-good entry reused", reused)
	}
	got, ok := reg.Get("credit")
	if !ok {
		t.Fatal("truncated reload dropped the last good model")
	}
	if got != want {
		t.Fatal("reload replaced the last good entry with something else")
	}
	if got.Version != 2 || got.Model.K() != 3 {
		t.Fatalf("served entry mangled: %+v", got)
	}
	if reg.failures.Value() != 1 {
		t.Fatalf("reload failures = %d, want 1", reg.failures.Value())
	}

	// Fixing the file recovers it on the next reload (the kept entry's
	// stale metadata forces a fresh decode).
	writeModelFile(t, dir, "credit@v2.json", testModel(3, 4))
	if _, _, err := reg.Reload(); err != nil {
		t.Fatalf("reload after repair: %v", err)
	}
	if got, _ := reg.Get("credit"); got == want {
		t.Fatal("repaired file was not re-decoded")
	}
}

// TestRegistryCorruptNewFileStillDropped pins the complement: a file that
// never loaded has no last-good fallback and simply stays out.
func TestRegistryCorruptNewFileStillDropped(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "broken.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(dir)
	if _, _, err := reg.Reload(); err == nil {
		t.Fatal("corrupt new file reported no error")
	}
	if _, ok := reg.Get("broken"); ok {
		t.Fatal("corrupt never-loaded file was served")
	}
	if reg.failures.Value() != 1 {
		t.Fatalf("reload failures = %d, want 1", reg.failures.Value())
	}
}
