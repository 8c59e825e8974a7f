package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Shared on-disk framing for the serve package's durable state: model
// artifacts (ArtifactStore), resumption tickets (ticketStore) and client
// preambles (PreambleStore) — three instantiations of durableStore — all
// persist as
//
//	magic (4 bytes) | format version (u32) | payload length (u64) |
//	CRC-32C(payload) (u32) | payload
//
// written atomically (temp file + rename). Each store supplies its own
// magic, version and typed sentinel errors through a frameSpec; the
// helpers here implement the write/verify discipline once so every new
// format inherits the same crash-safety and corruption story the
// ArtifactStore established: a crashed writer never publishes a torn
// file, and a reader distinguishes "not there" (a plain miss) from "there
// but unusable" (corrupt / version-skewed), with every failure mode
// falling back cleanly.

// frameSpec is one durable format's identity: its magic, current version,
// a label for error text, the extension its published files carry, the
// mode its directory is created with, and the typed sentinels its readers
// surface.
type frameSpec struct {
	magic   [4]byte
	version uint32
	label   string
	suffix  string
	dirMode fs.FileMode
	// Typed failure sentinels, matched with errors.Is by callers.
	errNotFound error
	errCorrupt  error
	errVersion  error
}

// writeFramed atomically publishes a framed payload at dst: temp file in
// dir, header + payload writes, then rename. A reader either sees the old
// complete file or the new complete file, never a torn write. The header
// and payload go out as two writes rather than one concatenated buffer —
// artifact payloads are multi-megabyte, so an extra full copy would be
// paid on the hot write-through path. Temp files are created 0600, so a
// published secret-material file (tickets, preambles) is never readable
// beyond its owner.
func (sp frameSpec) writeFramed(dir, name, dst string, payload []byte) error {
	var header [storeHeaderBytes]byte
	copy(header[0:4], sp.magic[:])
	binary.LittleEndian.PutUint32(header[4:], sp.version)
	binary.LittleEndian.PutUint64(header[8:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(header[16:], storeChecksum(payload))
	tmp, err := os.CreateTemp(dir, "."+url.PathEscape(name)+".tmp-*")
	if err != nil {
		return fmt.Errorf("serve: %s: %w", sp.label, err)
	}
	tmpName := tmp.Name()
	_, err = tmp.Write(header[:])
	if err == nil {
		_, err = tmp.Write(payload)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("serve: %s: write %q: %w", sp.label, name, err)
	}
	if err := os.Rename(tmpName, dst); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("serve: %s: publish %q: %w", sp.label, name, err)
	}
	return nil
}

// readFramed reads and verifies a framed file, returning the payload.
// Absent files return the spec's not-found sentinel; damaged or
// version-skewed files its corrupt / version sentinels. The checksum is
// verified before a single payload byte reaches the caller's codec.
func (sp frameSpec) readFramed(path, name string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %q", sp.errNotFound, name)
		}
		return nil, fmt.Errorf("serve: %s: read %q: %w", sp.label, name, err)
	}
	if len(data) < storeHeaderBytes {
		return nil, fmt.Errorf("%w: %q: %d-byte file shorter than the %d-byte header",
			sp.errCorrupt, name, len(data), storeHeaderBytes)
	}
	if [4]byte(data[0:4]) != sp.magic {
		return nil, fmt.Errorf("%w: %q: bad magic", sp.errCorrupt, name)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != sp.version {
		return nil, fmt.Errorf("%w: %q: file version %d, store speaks %d", sp.errVersion, name, v, sp.version)
	}
	plen := binary.LittleEndian.Uint64(data[8:])
	if plen != uint64(len(data)-storeHeaderBytes) {
		return nil, fmt.Errorf("%w: %q: header claims %d payload bytes, file carries %d",
			sp.errCorrupt, name, plen, len(data)-storeHeaderBytes)
	}
	payload := data[storeHeaderBytes:]
	if got := binary.LittleEndian.Uint32(data[16:]); got != storeChecksum(payload) {
		return nil, fmt.Errorf("%w: %q: checksum mismatch", sp.errCorrupt, name)
	}
	return payload, nil
}

// sweepTempFiles removes orphaned atomic-write temp files (".<name>.tmp-*")
// older than tempMaxAge from dir — the debris a writer crashed between
// CreateTemp and Rename leaves behind. Published files always end in
// publishedSuffix and are never touched. Best-effort: a file that vanishes
// mid-sweep or cannot be removed is simply skipped.
func sweepTempFiles(dir, publishedSuffix string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-tempMaxAge)
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasPrefix(name, ".") || !strings.Contains(name, ".tmp-") {
			continue
		}
		if strings.HasSuffix(name, publishedSuffix) {
			continue
		}
		info, err := ent.Info()
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		os.Remove(filepath.Join(dir, name))
	}
}
