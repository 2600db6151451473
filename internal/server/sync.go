package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/checkpoint"
)

// syncTmpSuffix marks a half-downloaded model file. It deliberately does
// not end in ".json", so the registry's file-name parser never considers
// an in-flight download a loadable model — the invariant that makes the
// sync/hot-reload race safe.
const syncTmpSuffix = ".sync-tmp"

// ManifestEntry describes one model file a replica can pull: its name,
// size and content checksum. CRC64 is hex-encoded because JSON numbers
// cannot carry 64 bits exactly.
type ManifestEntry struct {
	File  string `json:"file"`
	Size  int64  `json:"size"`
	CRC64 string `json:"crc64"`
}

// Manifest is the sync listing of a model directory, sorted by file name.
type Manifest struct {
	Files []ManifestEntry `json:"files"`
}

// Entry returns the manifest entry for file, if present.
func (m *Manifest) Entry(file string) (ManifestEntry, bool) {
	for _, e := range m.Files {
		if e.File == file {
			return e, true
		}
	}
	return ManifestEntry{}, false
}

// crcCacheKey invalidates a cached checksum when the file changes.
type crcCacheKey struct {
	modTime time.Time
	size    int64
}

// crcCache memoises per-file content checksums keyed by (mtime, size),
// so steady-state manifest builds and re-syncs cost one stat per file,
// not one full read.
type crcCache struct {
	mu sync.Mutex
	m  map[string]crcEntry
}

// crcEntry is one file's cached checksum and the key it is valid for.
type crcEntry struct {
	key crcCacheKey
	crc uint64
}

// sum returns the CRC-64 of the file at path, reading it only when the
// cached (mtime, size) no longer matches.
func (c *crcCache) sum(path string, modTime time.Time, size int64) (uint64, error) {
	key := crcCacheKey{modTime: modTime, size: size}
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[string]crcEntry)
	}
	if ent, ok := c.m[path]; ok && ent.key == key {
		c.mu.Unlock()
		return ent.crc, nil
	}
	c.mu.Unlock()
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	crc := checkpoint.Checksum(data)
	c.mu.Lock()
	c.m[path] = crcEntry{key: key, crc: crc}
	c.mu.Unlock()
	return crc, nil
}

// BuildManifest scans dir for model files and returns their sync
// manifest. cache may be nil (every file is read).
func BuildManifest(dir string, cache *crcCache) (*Manifest, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	if cache == nil {
		cache = &crcCache{}
	}
	man := &Manifest{Files: []ManifestEntry{}}
	for _, de := range entries {
		if de.IsDir() {
			continue
		}
		if _, _, ok := parseModelFileName(de.Name()); !ok {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			continue // raced with a delete; the next scan settles it
		}
		crc, err := cache.sum(filepath.Join(dir, de.Name()), fi.ModTime(), fi.Size())
		if err != nil {
			continue
		}
		man.Files = append(man.Files, ManifestEntry{
			File:  de.Name(),
			Size:  fi.Size(),
			CRC64: fmt.Sprintf("%016x", crc),
		})
	}
	sort.Slice(man.Files, func(i, j int) bool { return man.Files[i].File < man.Files[j].File })
	return man, nil
}

// handleSyncManifest serves the model directory's sync manifest, the
// pull point for replica model-dir sync.
func (s *Server) handleSyncManifest(w http.ResponseWriter, r *http.Request) {
	man, err := BuildManifest(s.cfg.ModelDir, &s.syncCRCs)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, man)
}

// handleSyncFile serves the raw bytes of one model file. Only names the
// registry itself would load are served, which both scopes the endpoint
// to model files and rules out path traversal.
func (s *Server) handleSyncFile(w http.ResponseWriter, r *http.Request) {
	file := r.PathValue("file")
	if _, _, ok := parseModelFileName(file); !ok || file != filepath.Base(file) {
		s.writeError(w, badRequest("not a model file name: %q", file))
		return
	}
	data, err := os.ReadFile(filepath.Join(s.cfg.ModelDir, file))
	if err != nil {
		if os.IsNotExist(err) {
			s.writeError(w, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("model file %q not found", file)})
			return
		}
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

// Syncer pulls a model directory into convergence with a source
// replica's registry contents: it fetches the source manifest, downloads
// files whose bytes differ locally, verifies each download against the
// manifest checksum (checkpoint.Checksum), and installs it with
// checkpoint.WriteFileAtomic, staged under the ".sync-tmp" suffix. A
// byte-identical file is never rewritten, so its mtime — and therefore
// the registry entry and micro-batcher instance serving it — survives a
// re-sync untouched.
type Syncer struct {
	// Source fetches from the origin server (its BaseURL).
	Source *Client
	// Dir is the local model directory to converge.
	Dir string
	// FS is the write-path filesystem; nil selects the real one. Tests
	// substitute internal/faultinject's FS to prove torn downloads never
	// become visible model files.
	FS checkpoint.FS
	// Prune removes local model files the source no longer has, making
	// convergence exact rather than additive.
	Prune bool

	// Counters are optional metric hooks; nil ones are skipped.
	Counters struct {
		Synced, Skipped, Pruned, Errors *Counter
	}

	crcs crcCache
}

func (s *Syncer) fs() checkpoint.FS {
	if s.FS == nil {
		return checkpoint.OSFS{}
	}
	return s.FS
}

// count adds n to an optional metric hook.
func count(metric *Counter, n int64) {
	if metric != nil {
		metric.Add(n)
	}
}

// SyncOnce performs one pull pass and reports how many files it
// installed and skipped. It is safe to run concurrently with registry
// reloads: downloads land under a non-model temp name and are renamed
// into place only after their bytes are fsynced and checksum-verified.
func (s *Syncer) SyncOnce(ctx context.Context) (synced, skipped int, err error) {
	data, err := s.Source.GetRaw(ctx, "/v1/sync/manifest")
	if err != nil {
		count(s.Counters.Errors, 1)
		return 0, 0, fmt.Errorf("sync: fetch manifest: %w", err)
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		count(s.Counters.Errors, 1)
		return 0, 0, fmt.Errorf("sync: decode manifest: %w", err)
	}

	if err := s.fs().MkdirAll(s.Dir, 0o755); err != nil {
		count(s.Counters.Errors, 1)
		return 0, 0, fmt.Errorf("sync: %w", err)
	}
	// Sweep temp files a crashed or failed earlier pass left behind; they
	// were never visible to the registry, but they do hold disk.
	locals, err := os.ReadDir(s.Dir)
	if err != nil {
		count(s.Counters.Errors, 1)
		return 0, 0, fmt.Errorf("sync: %w", err)
	}
	localFiles := make(map[string]os.FileInfo)
	for _, de := range locals {
		if de.IsDir() {
			continue
		}
		if strings.HasSuffix(de.Name(), syncTmpSuffix) {
			_ = s.fs().Remove(filepath.Join(s.Dir, de.Name()))
			continue
		}
		if _, _, ok := parseModelFileName(de.Name()); !ok {
			continue
		}
		if fi, ferr := de.Info(); ferr == nil {
			localFiles[de.Name()] = fi
		}
	}

	var errs []error
	for _, entry := range man.Files {
		if entry.File != filepath.Base(entry.File) {
			errs = append(errs, fmt.Errorf("sync: refusing manifest path %q", entry.File))
			continue
		}
		if fi, ok := localFiles[entry.File]; ok && fi.Size() == entry.Size {
			crc, cerr := s.crcs.sum(filepath.Join(s.Dir, entry.File), fi.ModTime(), fi.Size())
			if cerr == nil && fmt.Sprintf("%016x", crc) == entry.CRC64 {
				skipped++
				continue
			}
		}
		if err := s.fetchFile(ctx, entry); err != nil {
			errs = append(errs, err)
			continue
		}
		synced++
	}
	if s.Prune {
		for name := range localFiles {
			if _, ok := man.Entry(name); ok {
				continue
			}
			if err := s.fs().Remove(filepath.Join(s.Dir, name)); err != nil {
				errs = append(errs, fmt.Errorf("sync: prune %s: %w", name, err))
				continue
			}
			count(s.Counters.Pruned, 1)
		}
	}

	count(s.Counters.Synced, int64(synced))
	count(s.Counters.Skipped, int64(skipped))
	if len(errs) > 0 {
		count(s.Counters.Errors, 1)
		return synced, skipped, fmt.Errorf("sync: %d file(s) failed: %w", len(errs), errors.Join(errs...))
	}
	return synced, skipped, nil
}

// fetchFile downloads one model file, verifies it against the manifest
// checksum, and installs it atomically.
func (s *Syncer) fetchFile(ctx context.Context, entry ManifestEntry) error {
	data, err := s.Source.GetRaw(ctx, "/v1/sync/files/"+entry.File)
	if err != nil {
		return fmt.Errorf("sync: fetch %s: %w", entry.File, err)
	}
	if int64(len(data)) != entry.Size {
		return fmt.Errorf("sync: %s: got %d bytes, manifest says %d", entry.File, len(data), entry.Size)
	}
	if got := fmt.Sprintf("%016x", checkpoint.Checksum(data)); got != entry.CRC64 {
		return fmt.Errorf("sync: %s: checksum %s does not match manifest %s", entry.File, got, entry.CRC64)
	}

	final := filepath.Join(s.Dir, entry.File)
	if err := checkpoint.WriteFileAtomic(s.fs(), final+syncTmpSuffix, final, data); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	return nil
}

// Watch pulls every interval until ctx is cancelled, reporting each
// pass through logf (which may be nil). It is the replica-side sync
// loop run by cmd/ifair-server alongside the registry watcher.
func (s *Syncer) Watch(ctx context.Context, interval time.Duration, logf func(format string, args ...any)) {
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
			synced, _, err := s.SyncOnce(ctx)
			if err != nil {
				logf("model sync: %v", err)
			}
			if synced > 0 {
				logf("model sync: %d file(s) pulled from %s", synced, s.Source.BaseURL)
			}
		}
	}
}
