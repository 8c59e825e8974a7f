package serve

import (
	"errors"
	"fmt"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"strings"
)

// durableStore is the one directory-of-framed-files implementation behind
// the serve package's three durable formats. ArtifactStore, ticketStore and
// PreambleStore are instantiations that differ only in their frameSpec
// (magic, version, sentinels, file suffix, directory mode) and payload
// codec; the open/path/save/load/remove/list discipline — names escaped
// into the directory, atomic framed writes, checksum verified before the
// codec sees a byte, codec failures surfaced as the corrupt sentinel,
// orphaned temp files swept on open — lives here once.
type durableStore[T any] struct {
	frameSpec
	dir     string
	marshal func(T) ([]byte, error)
}

// openDurableStore opens (creating if necessary) the store directory with
// the spec's mode and sweeps temp files a crashed writer left behind.
func openDurableStore[T any](sp frameSpec, dir string, marshal func(T) ([]byte, error)) (*durableStore[T], error) {
	if dir == "" {
		return nil, fmt.Errorf("serve: %s: empty directory", sp.label)
	}
	if err := os.MkdirAll(dir, sp.dirMode); err != nil {
		return nil, fmt.Errorf("serve: %s: %w", sp.label, err)
	}
	sweepTempFiles(dir, sp.suffix)
	return &durableStore[T]{frameSpec: sp, dir: dir, marshal: marshal}, nil
}

// path maps an arbitrary name to its file, URL-path-escaped so names with
// separators stay within the directory.
func (ds *durableStore[T]) path(name string) string {
	return filepath.Join(ds.dir, url.PathEscape(name)+ds.suffix)
}

// save encodes v and atomically publishes it under name, replacing any
// previous version.
func (ds *durableStore[T]) save(name string, v T) error {
	payload, err := ds.marshal(v)
	if err != nil {
		return fmt.Errorf("serve: %s: encode %q: %w", ds.label, name, err)
	}
	return ds.writeFramed(ds.dir, name, ds.path(name), payload)
}

// load reads, verifies and decodes the file stored under name.
func (ds *durableStore[T]) load(name string, unmarshal func([]byte) (T, error)) (T, error) {
	return ds.loadFile(ds.path(name), name, unmarshal)
}

// loadFile is load for a file found by list. Absent files return the
// spec's not-found sentinel, damaged or version-skewed ones its corrupt /
// version sentinels. A payload whose checksum held but which the codec
// rejects is intact yet semantically unusable — still a corrupt-class
// failure for fallback purposes.
func (ds *durableStore[T]) loadFile(path, name string, unmarshal func([]byte) (T, error)) (T, error) {
	var zero T
	payload, err := ds.readFramed(path, name)
	if err != nil {
		return zero, err
	}
	v, err := unmarshal(payload)
	if err != nil {
		return zero, fmt.Errorf("%w: %q: %v", ds.errCorrupt, name, err)
	}
	return v, nil
}

// remove deletes the file stored under name, if any.
func (ds *durableStore[T]) remove(name string) error {
	err := os.Remove(ds.path(name))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// list returns the directory entries of every published file (temp files
// and foreign files excluded) — the input to a load-all or a sweep.
func (ds *durableStore[T]) list() ([]fs.DirEntry, error) {
	entries, err := os.ReadDir(ds.dir)
	if err != nil {
		return nil, err
	}
	published := entries[:0]
	for _, ent := range entries {
		if !ent.IsDir() && strings.HasSuffix(ent.Name(), ds.suffix) {
			published = append(published, ent)
		}
	}
	return published, nil
}
