package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/ifair"
	"repro/internal/kernel"
)

// Entry is one loaded model in the registry.
type Entry struct {
	// Name and Version identify the model; version comes from the file
	// name (`<name>@v<version>.json`, plain `<name>.json` is version 1).
	Name    string
	Version int
	// Model is the decoded, validated representation.
	Model *ifair.Model
	// Path is the file the entry was loaded from.
	Path string

	// modTime and size detect changed files across reloads.
	modTime time.Time
	size    int64

	// kern is the entry's compiled serving kernel, built on first use.
	// Compiling per entry (not per request) is what makes hot reloads
	// cheap and scratch reuse safe: a new model version is a new Entry
	// with its own immutable kernel and private scratch pool.
	once    sync.Once
	kern    *kernel.CompiledKernel
	kernErr error
}

// Kernel returns the entry's compiled serving kernel, compiling it from
// the model on first use. The kernel is immutable and safe for
// concurrent use; its per-call scratch never outlives the entry, so a
// hot reload can never leak scratch across model versions.
func (e *Entry) Kernel() (*kernel.CompiledKernel, error) {
	e.once.Do(func() { e.kern, e.kernErr = e.Model.Compile(kernel.Float64) })
	return e.kern, e.kernErr
}

// Key returns the canonical "<name>@v<version>" identity of the entry.
func (e *Entry) Key() string { return fmt.Sprintf("%s@v%d", e.Name, e.Version) }

// Info is the JSON-facing summary of a loaded model.
type Info struct {
	Name     string  `json:"name"`
	Version  int     `json:"version"`
	Latest   bool    `json:"latest"`
	K        int     `json:"k"`
	N        int     `json:"n"`
	Kernel   string  `json:"kernel"`
	Loss     float64 `json:"loss"`
	FileName string  `json:"file"`
}

// Registry is a concurrency-safe collection of named, versioned models
// loaded from a directory. Reload rescans the directory and atomically
// swaps the table, reusing decoded models for files whose mtime and size
// are unchanged — so a reload under live traffic costs one directory
// scan, not a re-decode of every model.
type Registry struct {
	dir string

	// failures counts model files that failed to (re)load; exported to
	// /metrics as registry_reload_failures via SetFailureCounter.
	failures *Counter

	mu     sync.RWMutex
	models map[string][]*Entry // name → entries sorted by ascending version

	// pins and quarantine are rollout state, deliberately kept OUTSIDE
	// the models table so Reload (hot reload, Syncer re-installs) cannot
	// disturb them: a pinned stable stays pinned and a quarantined
	// version stays ineligible even when its file reappears on disk.
	// Both are in-memory only — process-lifetime, not persisted.
	pins       map[string]int          // name → pinned stable version
	quarantine map[string]map[int]bool // name → versions barred from Get
}

// NewRegistry returns an empty registry rooted at dir. Call Reload to
// populate it.
func NewRegistry(dir string) *Registry {
	return &Registry{
		dir:        dir,
		failures:   &Counter{},
		models:     make(map[string][]*Entry),
		pins:       make(map[string]int),
		quarantine: make(map[string]map[int]bool),
	}
}

// SetFailureCounter redirects the reload-failure count to c (typically a
// counter registered in a Metrics table). Call before the first Reload.
func (r *Registry) SetFailureCounter(c *Counter) { r.failures = c }

// parseModelFileName splits "credit@v3.json" into ("credit", 3) and
// "credit.json" into ("credit", 1). Non-model files return ok=false.
func parseModelFileName(base string) (name string, version int, ok bool) {
	if !strings.HasSuffix(base, ".json") {
		return "", 0, false
	}
	stem := strings.TrimSuffix(base, ".json")
	if stem == "" {
		return "", 0, false
	}
	name, ver, found := strings.Cut(stem, "@")
	if !found {
		return stem, 1, true
	}
	if name == "" || !strings.HasPrefix(ver, "v") {
		return "", 0, false
	}
	n, err := strconv.Atoi(strings.TrimPrefix(ver, "v"))
	if err != nil || n <= 0 {
		return "", 0, false
	}
	return name, n, true
}

// Reload rescans the model directory and swaps in the new table. Files
// that fail to load are reported in the joined error and counted in
// registry_reload_failures, but never take a working model out of
// service: if the file was loaded before — say a hot redeploy truncated
// it mid-write — the last good version keeps serving; if it never
// loaded, the rest of the registry still does.
func (r *Registry) Reload() (loaded, reused int, err error) {
	dirEntries, derr := os.ReadDir(r.dir)
	if derr != nil {
		return 0, 0, derr
	}

	// Index the current table by path for reuse.
	r.mu.RLock()
	prev := make(map[string]*Entry)
	for _, entries := range r.models {
		for _, e := range entries {
			prev[e.Path] = e
		}
	}
	r.mu.RUnlock()

	next := make(map[string][]*Entry)
	var errs []error
	for _, de := range dirEntries {
		if de.IsDir() {
			continue
		}
		name, version, ok := parseModelFileName(de.Name())
		if !ok {
			continue
		}
		path := filepath.Join(r.dir, de.Name())
		fi, ferr := de.Info()
		if ferr != nil {
			r.failures.Inc()
			errs = append(errs, ferr)
			continue
		}
		if old, ok := prev[path]; ok && old.modTime.Equal(fi.ModTime()) && old.size == fi.Size() {
			next[name] = append(next[name], old)
			reused++
			continue
		}
		model, lerr := ifair.LoadModelFile(path)
		if lerr != nil {
			r.failures.Inc()
			if old, ok := prev[path]; ok {
				// The file turned bad under us (truncated redeploy, torn
				// write): keep serving the entry we already validated
				// rather than dropping a live model. Its stale modTime/size
				// make the next reload retry the file.
				next[name] = append(next[name], old)
				reused++
				errs = append(errs, fmt.Errorf("%w (still serving the previously loaded version)", lerr))
				continue
			}
			errs = append(errs, lerr)
			continue
		}
		next[name] = append(next[name], &Entry{
			Name: name, Version: version, Model: model, Path: path,
			modTime: fi.ModTime(), size: fi.Size(),
		})
		loaded++
	}
	for _, entries := range next {
		sort.Slice(entries, func(i, j int) bool { return entries[i].Version < entries[j].Version })
	}

	r.mu.Lock()
	r.models = next
	r.mu.Unlock()
	return loaded, reused, errors.Join(errs...)
}

// Get returns the serving entry for the named model. Contrary to what
// this method historically claimed ("the latest version"), the policy
// is:
//
//  1. the pinned version, if one is set (via Pin, e.g. after a rollout
//     guard promotes or rolls back) and still loaded;
//  2. otherwise the newest non-quarantined version;
//  3. otherwise — every loaded version quarantined — the newest version,
//     because serving a quarantined model beats serving nothing.
//
// In particular, after a rollback (stable pinned, newer version
// quarantined) Get keeps returning the stable entry even when the newer
// version's file is still on disk and re-synced by server.Syncer: reload
// rebuilds the models table but never touches pins or quarantine.
func (r *Registry) Get(name string) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	entries := r.models[name]
	if len(entries) == 0 {
		return nil, false
	}
	if v, ok := r.pins[name]; ok {
		for _, e := range entries {
			if e.Version == v {
				return e, true
			}
		}
		// The pinned file vanished from disk; fall through to the
		// newest-eligible policy rather than serving nothing.
	}
	q := r.quarantine[name]
	for i := len(entries) - 1; i >= 0; i-- {
		if !q[entries[i].Version] {
			return entries[i], true
		}
	}
	return entries[len(entries)-1], true
}

// Pin makes Get serve exactly the given version of name (the rollout
// guard's notion of "stable"). Pinning survives Reload; pinning a
// version that is not loaded makes Get fall back to the newest eligible
// entry until the version appears.
func (r *Registry) Pin(name string, version int) {
	r.mu.Lock()
	r.pins[name] = version
	r.mu.Unlock()
}

// Quarantine bars a version of name from being served by Get or adopted
// as a canary (a rolled-back version). Quarantine is in-memory and
// survives Reload — a hot reload or Syncer re-install of the same file
// cannot re-promote a rolled-back version; only a process restart or a
// new version number can.
func (r *Registry) Quarantine(name string, version int) {
	r.mu.Lock()
	if r.quarantine[name] == nil {
		r.quarantine[name] = make(map[int]bool)
	}
	r.quarantine[name][version] = true
	r.mu.Unlock()
}

// NewestEligible returns the newest loaded, non-quarantined version of
// name — the rollout guard's canary candidate — ignoring any pin.
func (r *Registry) NewestEligible(name string) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	entries := r.models[name]
	q := r.quarantine[name]
	for i := len(entries) - 1; i >= 0; i-- {
		if !q[entries[i].Version] {
			return entries[i], true
		}
	}
	return nil, false
}

// GetVersion returns a specific version of the named model.
func (r *Registry) GetVersion(name string, version int) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, e := range r.models[name] {
		if e.Version == version {
			return e, true
		}
	}
	return nil, false
}

// Len returns the number of loaded (name, version) pairs.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, entries := range r.models {
		n += len(entries)
	}
	return n
}

// List returns a summary of every loaded model, sorted by name then
// version.
func (r *Registry) List() []Info {
	r.mu.RLock()
	defer r.mu.RUnlock()
	infos := make([]Info, 0, len(r.models))
	for _, entries := range r.models {
		for i, e := range entries {
			infos = append(infos, Info{
				Name:     e.Name,
				Version:  e.Version,
				Latest:   i == len(entries)-1,
				K:        e.Model.K(),
				N:        e.Model.Dims(),
				Kernel:   e.Model.Kernel.String(),
				Loss:     e.Model.Loss,
				FileName: filepath.Base(e.Path),
			})
		}
	}
	sort.Slice(infos, func(i, j int) bool {
		if infos[i].Name != infos[j].Name {
			return infos[i].Name < infos[j].Name
		}
		return infos[i].Version < infos[j].Version
	})
	return infos
}

// Watch reloads the registry every interval until ctx is cancelled,
// reporting each reload through logf (which may be nil). It is the
// hot-reload loop run by cmd/ifair-server.
func (r *Registry) Watch(ctx context.Context, interval time.Duration, logf func(format string, args ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			loaded, _, err := r.Reload()
			if err != nil {
				logf("registry reload: %v", err)
			}
			if loaded > 0 {
				logf("registry reload: %d model file(s) (re)loaded, %d total", loaded, r.Len())
			}
		}
	}
}
