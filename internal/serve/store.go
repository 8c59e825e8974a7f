package serve

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"privinf/internal/delphi"
	"privinf/internal/nn"
)

// ArtifactStore is the disk half of the model-artifact cache: a directory
// of serialized delphi.SharedModel artifacts, one file per model name. A
// registry backed by a store turns server restarts into O(load) instead of
// O(encode) — the dominant setup cost the paper's §5.2 identifies — and
// turns LRU eviction into spill/reload instead of drop/re-encode.
//
// Each file is framed as
//
//	magic "PIAF" | format version (u32) | payload length (u64) |
//	CRC-32C(payload) (u32) | payload (delphi SharedModel codec)
//
// and written atomically (temp file + rename), so a crashed writer never
// leaves a half-written artifact where a reader will find it. Load verifies
// the checksum before handing a byte to the codec and distinguishes "not
// there" (ErrArtifactNotFound — a plain cache miss) from "there but
// unusable" (ErrArtifactCorrupt / ErrArtifactVersion — counted by the
// registry as load errors); every failure mode falls back to a fresh build.
// CRC-32C (Castagnoli, hardware-accelerated on amd64/arm64) targets the
// store's actual threat — torn writes and disk corruption — and keeps the
// verify cost far below the decode it guards; the store directory is
// trusted local state, not an adversarial input channel, so a
// cryptographic digest would buy nothing here.
//
// An ArtifactStore is safe for concurrent use: Save's rename is atomic and
// Load reads a snapshot of whichever version the rename published.
//
// Opening a store sweeps orphaned temp files a crashed writer left behind,
// and a store opened with a disk budget (NewArtifactStoreBudget) sweeps
// least-recently-modified artifact files after every Save, so a registry
// serving a rotating model population no longer grows the directory
// unboundedly.
type ArtifactStore struct {
	ds *durableStore[*delphi.SharedModel]
	// diskBudget caps total artifact-file bytes in dir; <= 0 unbounded.
	// Save triggers a sweep past it, and Sweep can be called directly.
	diskBudget int64
	// sweeping gates sweeps so concurrent Saves do not race over the same
	// directory listing. A CAS gate rather than a mutex: a sweep already in
	// flight covers the directory state a second caller would see, so the
	// loser skips instead of queueing behind disk I/O.
	sweeping atomic.Bool
}

// Sentinel errors distinguishing the store's failure modes; match with
// errors.Is.
var (
	// ErrArtifactNotFound reports that no artifact is stored under the name
	// (a plain cache miss, not a failure).
	ErrArtifactNotFound = errors.New("serve: artifact not found")
	// ErrArtifactCorrupt reports a damaged file: truncation, framing
	// inconsistency, or checksum mismatch.
	ErrArtifactCorrupt = errors.New("serve: artifact corrupt")
	// ErrArtifactVersion reports a file written under a different store
	// format version.
	ErrArtifactVersion = errors.New("serve: artifact format version mismatch")
)

// storeFormatVersion is bumped whenever the file framing or the embedded
// codec layout changes; readers reject any other version (the registry then
// rebuilds and Save overwrites the stale file). Version 2 stopped storing
// matvec plans and ReLU circuits.
const storeFormatVersion = 2

// storeChecksum is the payload checksum: CRC-32C over the payload bytes.
func storeChecksum(payload []byte) uint32 {
	return crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli))
}

// storeHeaderBytes is the fixed frame before the payload: magic, version,
// payload length, CRC-32C digest.
const storeHeaderBytes = 4 + 4 + 8 + 4

// NewArtifactStoreBudget opens an artifact store whose directory is kept
// under diskBudget bytes of artifact files (<= 0 means unbounded): every
// Save sweeps least-recently-modified files past the budget. Opening also
// deletes orphaned temp files left by crashed atomic writes.
func NewArtifactStoreBudget(dir string, diskBudget int64) (*ArtifactStore, error) {
	ds, err := openDurableStore(artifactFrame, dir, (*delphi.SharedModel).MarshalBinary)
	if err != nil {
		return nil, err
	}
	return &ArtifactStore{ds: ds, diskBudget: diskBudget}, nil
}

// tempMaxAge is how old a temp file must be before the startup sweep
// treats it as orphaned. A live writer in another process sharing the
// directory finishes (or fails) its write-then-rename in well under this.
const tempMaxAge = time.Hour

// artifactSuffix is the extension every published artifact file carries. A
// model whose escaped name happens to start with "." and contain ".tmp-"
// must not be mistaken for crash debris; the suffix is what tells them
// apart.
const artifactSuffix = ".piart"

// Sweep deletes least-recently-modified artifact files until the
// directory's artifact bytes fit budget (<= 0 sweeps nothing). The
// most-recently-modified file is never deleted, so the artifact a Save
// just published always survives its own sweep. Temp files and foreign
// files are untouched. Returns the number of files removed.
//
// Eviction order is by file modification time, which the registry's
// write-through refreshes on every spill — so disk LRU tracks build
// recency, an approximation of use recency that needs no extra metadata.
func (st *ArtifactStore) Sweep(budget int64) (int, error) {
	if budget <= 0 {
		return 0, nil
	}
	if !st.sweeping.CompareAndSwap(false, true) {
		// A sweep is already walking this directory; it will observe any
		// artifact published before it lists, so skipping loses nothing.
		return 0, nil
	}
	defer st.sweeping.Store(false)
	entries, err := st.ds.list()
	if err != nil {
		return 0, fmt.Errorf("serve: artifact store sweep: %w", err)
	}
	type file struct {
		path  string
		size  int64
		mtime time.Time
	}
	var files []file
	var total int64
	for _, ent := range entries {
		info, err := ent.Info()
		if err != nil {
			continue // vanished mid-listing
		}
		files = append(files, file{path: filepath.Join(st.ds.dir, ent.Name()), size: info.Size(), mtime: info.ModTime()})
		total += info.Size()
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	removed := 0
	for i := 0; total > budget && i < len(files)-1; i++ {
		if err := os.Remove(files[i].path); err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				total -= files[i].size
				continue
			}
			return removed, fmt.Errorf("serve: artifact store sweep: %w", err)
		}
		total -= files[i].size
		removed++
	}
	return removed, nil
}

// Dir returns the store's root directory.
func (st *ArtifactStore) Dir() string { return st.ds.dir }

// Path returns the file path an artifact name maps to. Names are
// URL-path-escaped so arbitrary registry names (slashes included) stay
// within the store directory.
func (st *ArtifactStore) Path(name string) string { return st.ds.path(name) }

// Has reports whether an artifact file exists under name (without
// validating it).
func (st *ArtifactStore) Has(name string) bool {
	_, err := os.Stat(st.Path(name))
	return err == nil
}

// artifactFrame is the ArtifactStore's on-disk format identity (see
// framing.go — tickets and preambles share the write/verify discipline).
var artifactFrame = frameSpec{
	magic:       [4]byte{'P', 'I', 'A', 'F'},
	version:     storeFormatVersion,
	label:       "artifact store",
	suffix:      artifactSuffix,
	dirMode:     0o755,
	errNotFound: ErrArtifactNotFound,
	errCorrupt:  ErrArtifactCorrupt,
	errVersion:  ErrArtifactVersion,
}

// Save serializes the artifact and atomically publishes it under name,
// replacing any previous version. Write-then-rename: a reader either sees
// the old complete file or the new complete file, never a torn write.
func (st *ArtifactStore) Save(name string, art *delphi.SharedModel) error {
	if art == nil {
		return fmt.Errorf("serve: artifact store: nil artifact %q", name)
	}
	if err := st.ds.save(name, art); err != nil {
		return err
	}
	// Keep the directory under its budget (none: Sweep is a no-op); the
	// just-published file is the newest and therefore never the one swept.
	// Sweep failures do not fail the Save — the write itself succeeded.
	st.Sweep(st.diskBudget)
	return nil
}

// Load reads, verifies and decodes the artifact stored under name,
// attaching it to its source model (the registry retains the model for the
// life of a registration; the store persists only the expensive encoded
// form). Absent files return ErrArtifactNotFound; damaged or incompatible
// files — including an intact payload that is wrong for this model or
// codec — return errors matching ErrArtifactCorrupt or ErrArtifactVersion.
func (st *ArtifactStore) Load(name string, model *nn.Lowered) (*delphi.SharedModel, error) {
	return st.ds.load(name, func(payload []byte) (*delphi.SharedModel, error) {
		return delphi.UnmarshalSharedModel(payload, model)
	})
}
