package serve

import (
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"privinf/internal/bfv"
	"privinf/internal/bin"
	"privinf/internal/delphi"
)

// ticketStore is the disk half of the resumption-ticket cache: a directory
// of framed ticket records, one file per ticket, named by the hex of the
// ticket identifier. It gives the ticketCache the same restart story the
// ArtifactStore gives the registry — an engine restart reloads its live
// tickets in O(read) and repeat clients stay on the resumed fast path
// through the crash — under the identical framing, atomic-write and typed
// corruption discipline (see framing.go).
//
// Records hold secret OT correlation seeds, so files are created 0600 and
// the directory 0700. Loading sweeps records whose TTL lapsed while the
// engine was down and deletes files that fail verification (corrupt or
// version-skewed records can never become redeemable again — removing them
// converts a permanent load error into a clean miss).
type ticketStore struct {
	ds *durableStore[ticketRecord]
}

// Sentinel errors distinguishing the ticket store's failure modes; match
// with errors.Is.
var (
	// ErrTicketNotFound reports that no record is stored under the ticket id.
	ErrTicketNotFound = errors.New("serve: ticket record not found")
	// ErrTicketCorrupt reports a damaged record file: truncation, framing
	// inconsistency, checksum mismatch, or a payload the codec rejects.
	ErrTicketCorrupt = errors.New("serve: ticket record corrupt")
	// ErrTicketVersion reports a record written under a different ticket
	// format version.
	ErrTicketVersion = errors.New("serve: ticket record format version mismatch")
)

// ticketFormatVersion is bumped whenever the record framing or payload
// layout changes; readers reject (and the load sweep deletes) any other
// version.
const ticketFormatVersion = 1

// ticketSuffix is the extension every published ticket record carries.
const ticketSuffix = ".pitk"

var ticketFrame = frameSpec{
	magic:       [4]byte{'P', 'I', 'T', 'K'},
	version:     ticketFormatVersion,
	label:       "ticket store",
	suffix:      ticketSuffix,
	dirMode:     0o700,
	errNotFound: ErrTicketNotFound,
	errCorrupt:  ErrTicketCorrupt,
	errVersion:  ErrTicketVersion,
}

// newTicketStore opens (creating if necessary) a ticket store rooted at
// dir and sweeps orphaned temp files from crashed atomic writes. The
// directory is created 0700: every record holds secret seed material.
func newTicketStore(dir string) (*ticketStore, error) {
	ds, err := openDurableStore(ticketFrame, dir, marshalTicketRecord)
	if err != nil {
		return nil, err
	}
	return &ticketStore{ds: ds}, nil
}

// ticketRecord is one persisted ticket: its identifier, absolute expiry,
// and the cached OT seed material.
type ticketRecord struct {
	id      []byte
	expires time.Time
	state   *delphi.OTResume
}

// marshalTicketRecord encodes a record payload (the frame supplies
// integrity): expiry unix-nanos, then the length-prefixed id and OT state.
func marshalTicketRecord(rec ticketRecord) ([]byte, error) {
	if rec.state == nil {
		return nil, fmt.Errorf("serve: ticket store: nil OT state")
	}
	raw, err := rec.state.MarshalBinary()
	if err != nil {
		return nil, err
	}
	var w bin.Writer
	w.U64(uint64(rec.expires.UnixNano()))
	w.Blob(rec.id)
	w.Blob(raw)
	return w.Buf, nil
}

// unmarshalTicketRecord decodes a record payload, rejecting truncated
// fields, hostile lengths and trailing bytes. A record written at wire v13
// ends in the client's length-prefixed seeded public key: it must parse
// strictly (bfv.ParsePublicKey, its length giving the degree) and is
// dropped, since every connect now sends the key.
func unmarshalTicketRecord(payload []byte) (ticketRecord, error) {
	r := bin.NewReader(payload)
	expires := int64(r.U64())
	id := r.Blob()
	raw := r.Blob()
	if r.Err() == nil && r.Remaining() > 0 {
		key := r.Blob()
		if _, err := bfv.ParsePublicKey((len(key)-bfv.SeedSize)/8, key); r.Err() == nil && err != nil {
			return ticketRecord{}, err
		}
	}
	if err := r.Done(); err != nil {
		return ticketRecord{}, fmt.Errorf("serve: ticket record: %w", err)
	}
	if len(id) != ticketIDBytes {
		return ticketRecord{}, fmt.Errorf("serve: ticket record id is %d bytes, want %d", len(id), ticketIDBytes)
	}
	state, err := delphi.UnmarshalOTResume(raw)
	if err != nil {
		return ticketRecord{}, err
	}
	return ticketRecord{
		id:      append([]byte(nil), id...),
		expires: time.Unix(0, expires),
		state:   state,
	}, nil
}

// path returns the file a ticket id maps to: records are named by the hex
// of the identifier.
func (ts *ticketStore) path(id []byte) string { return ts.ds.path(hex.EncodeToString(id)) }

// save atomically publishes one ticket record, replacing any previous
// version (a redeem that slid the expiry re-persists the same ticket).
func (ts *ticketStore) save(rec ticketRecord) error {
	return ts.ds.save(hex.EncodeToString(rec.id), rec)
}

// remove deletes the record for a ticket id, if any.
func (ts *ticketStore) remove(id []byte) error { return ts.ds.remove(hex.EncodeToString(id)) }

// ticketLoadStats is what loadAll found on disk.
type ticketLoadStats struct {
	// loaded records returned to the cache; expired records swept for
	// lapsing while the engine was down; corrupt records (framing, version
	// or codec failures) deleted so they cannot fail every future load.
	loaded, expired, corrupt int
}

// loadAll reads every record in the store, sweeping lapsed and unusable
// files: a record whose expiry is at or before now is deleted (TTL holds
// across restarts — the same not-Before boundary redeem applies), and a
// record that fails verification is deleted and counted rather than
// surfaced (the cache falls back to fresh handshakes for that client).
func (ts *ticketStore) loadAll(now time.Time) ([]ticketRecord, ticketLoadStats) {
	var st ticketLoadStats
	entries, err := ts.ds.list()
	if err != nil {
		return nil, st
	}
	var recs []ticketRecord
	for _, ent := range entries {
		path := filepath.Join(ts.ds.dir, ent.Name())
		rec, err := ts.ds.loadFile(path, strings.TrimSuffix(ent.Name(), ticketSuffix), unmarshalTicketRecord)
		switch {
		case err != nil:
			st.corrupt++
			os.Remove(path)
		case !now.Before(rec.expires):
			st.expired++
			os.Remove(path)
		default:
			recs = append(recs, rec)
			st.loaded++
		}
	}
	return recs, st
}
