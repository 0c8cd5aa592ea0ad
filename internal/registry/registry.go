// Package registry stores versioned predictor artifacts on disk and
// serves them through a ref-counted LRU cache of warmed predictors —
// the model side of fleet-scale serving. A Store is a directory of
// immutable model files plus a crash-safe manifest; a Cache keeps the
// hottest models resident, each carrying its own pool of warmed
// inference arenas (keyed by padded batch shape inside the predictor),
// so a cache hit serves with zero steady-state allocations while cold
// models cost one lazy load.
//
// Layout under the store directory:
//
//	manifest.json        {"format":1,"models":{"name":[1,2,...]}}
//	<name>/v<N>.model    core.Predictor.SaveFile snapshot, immutable
//
// Publishing never rewrites an existing version: a new version is
// staged crash-safely (internal/fsx atomic write) and then the manifest
// is atomically replaced, so a process killed mid-publish leaves either
// the old manifest (new file orphaned, harmless) or the new one — never
// a manifest pointing at a truncated model.
package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/fsx"
)

// manifestFormat is bumped on incompatible manifest changes.
const manifestFormat = 1

type manifest struct {
	Format int              `json:"format"`
	Models map[string][]int `json:"models"` // name → ascending version list
}

// Store is a directory of versioned predictor artifacts. Safe for
// concurrent use; every mutation lands on disk before it is visible.
type Store struct {
	dir string
	mu  sync.Mutex
	man manifest
}

// ErrUnknownModel marks a lookup for a name (or version) the store does
// not hold.
var ErrUnknownModel = errors.New("registry: unknown model")

// Open opens (or initializes) a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("registry: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	s := &Store{dir: dir, man: manifest{Format: manifestFormat, Models: map[string][]int{}}}
	raw, err := os.ReadFile(s.manifestPath())
	switch {
	case errors.Is(err, os.ErrNotExist):
		return s, nil
	case err != nil:
		return nil, fmt.Errorf("registry: %w", err)
	}
	if err := json.Unmarshal(raw, &s.man); err != nil {
		return nil, fmt.Errorf("registry: corrupt manifest: %w", err)
	}
	if s.man.Format != manifestFormat {
		return nil, fmt.Errorf("registry: manifest format %d, want %d", s.man.Format, manifestFormat)
	}
	if s.man.Models == nil {
		s.man.Models = map[string][]int{}
	}
	return s, nil
}

func (s *Store) manifestPath() string { return filepath.Join(s.dir, "manifest.json") }

func (s *Store) versionPath(name string, v int) string {
	return filepath.Join(s.dir, name, fmt.Sprintf("v%d.model", v))
}

// validName keeps model names path-safe: one directory component, no
// separators, no dot-prefix tricks.
func validName(name string) error {
	if name == "" {
		return errors.New("registry: empty model name")
	}
	if len(name) > 128 {
		return errors.New("registry: model name too long")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("registry: model name %q: only [A-Za-z0-9._-] allowed", name)
		}
	}
	if name[0] == '.' {
		return fmt.Errorf("registry: model name %q must not start with a dot", name)
	}
	return nil
}

// Publish writes p as the next version of name and returns that version
// number (1 for a new name). The artifact is written crash-safely first;
// the manifest is replaced only after it is durable.
func (s *Store) Publish(name string, p *core.Predictor) (int, error) {
	if err := validName(name); err != nil {
		return 0, err
	}
	if p == nil {
		return 0, errors.New("registry: nil predictor")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	versions := s.man.Models[name]
	next := 1
	if n := len(versions); n > 0 {
		next = versions[n-1] + 1
	}
	if err := os.MkdirAll(filepath.Join(s.dir, name), 0o755); err != nil {
		return 0, fmt.Errorf("registry: %w", err)
	}
	if err := p.SaveFile(s.versionPath(name, next)); err != nil {
		return 0, fmt.Errorf("registry: publish %s v%d: %w", name, next, err)
	}
	s.man.Models[name] = append(versions, next)
	if err := s.writeManifestLocked(); err != nil {
		// Roll the in-memory view back; the orphaned artifact file is
		// harmless (next publish reuses the version number and replaces
		// it atomically).
		s.man.Models[name] = versions
		return 0, err
	}
	return next, nil
}

func (s *Store) writeManifestLocked() error {
	err := fsx.WriteFileAtomic(s.manifestPath(), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(s.man)
	})
	if err != nil {
		return fmt.Errorf("registry: write manifest: %w", err)
	}
	return nil
}

// Latest returns the newest published version of name, or ok=false.
func (s *Store) Latest(name string) (v int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	versions := s.man.Models[name]
	if len(versions) == 0 {
		return 0, false
	}
	return versions[len(versions)-1], true
}

// Names returns the published model names, sorted.
func (s *Store) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.man.Models))
	for name := range s.man.Models {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Load reads one version of name from disk (version ≤ 0 means latest)
// and returns the predictor plus the resolved version. Every call reads
// disk — the Cache is the layer that keeps models warm.
func (s *Store) Load(name string, version int) (*core.Predictor, int, error) {
	if err := validName(name); err != nil {
		return nil, 0, err
	}
	s.mu.Lock()
	versions := s.man.Models[name]
	if len(versions) == 0 {
		s.mu.Unlock()
		return nil, 0, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	if version <= 0 {
		version = versions[len(versions)-1]
	} else {
		found := false
		for _, v := range versions {
			if v == version {
				found = true
				break
			}
		}
		if !found {
			s.mu.Unlock()
			return nil, 0, fmt.Errorf("%w: %q v%d", ErrUnknownModel, name, version)
		}
	}
	path := s.versionPath(name, version)
	s.mu.Unlock()

	p, err := core.LoadPredictorFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("registry: load %s v%d: %w", name, version, err)
	}
	return p, version, nil
}
