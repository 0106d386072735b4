package persist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// File names inside the persist directory.
const (
	snapshotFile = "snapshot.json"
	walFile      = "wal.log"
)

// persist_* metric names.
const (
	// MetricWALAppends counts WAL records appended.
	MetricWALAppends = "persist_wal_appends_total"
	// MetricWALBytes counts WAL bytes appended (frame headers included).
	MetricWALBytes = "persist_wal_append_bytes_total"
	// MetricFsyncSeconds is the latency histogram of WAL fsyncs.
	MetricFsyncSeconds = "persist_fsync_seconds"
	// MetricSnapshots counts compacted snapshots written.
	MetricSnapshots = "persist_snapshots_total"
	// MetricSnapshotBytes is the size of the last snapshot written.
	MetricSnapshotBytes = "persist_snapshot_bytes"
	// MetricSnapshotSeconds is the latency histogram of snapshot writes
	// (marshal + write + fsync + rename).
	MetricSnapshotSeconds = "persist_snapshot_seconds"
	// MetricReplayed counts WAL records replayed by Restore.
	MetricReplayed = "persist_wal_replayed_total"
	// MetricRestores counts successful Restore calls.
	MetricRestores = "persist_restores_total"
	// MetricTornTails counts torn/corrupt WAL tails discarded at Open.
	MetricTornTails = "persist_wal_torn_tails_total"
)

// ErrTornWrite marks a store dead after an (injected) torn append: the
// process is presumed crashed mid-write, so no further appends are accepted.
var ErrTornWrite = errors.New("persist: torn WAL write, store is dead")

// ErrShortRead marks a store whose WAL scan was cut short by an (injected)
// partial read: restore still serves the valid prefix, but the store refuses
// to append (it cannot know where the real durable tail is).
var ErrShortRead = errors.New("persist: short WAL read, store is read-only")

// Options parameterizes Open.
type Options struct {
	// Dir is the persist directory (created if missing).
	Dir string
	// Fsync syncs the WAL after every append and the snapshot before rename.
	// Off, durability is limited to what the OS page cache survives — fine
	// for drills and tests, not for production.
	Fsync bool
	// SnapshotEvery compacts automatically after this many WAL appends
	// (default 1024; negative disables auto-compaction).
	SnapshotEvery int
	// Obs receives persist_* metrics (nil = uninstrumented).
	Obs *obs.Registry
	// Faults injects torn writes and short reads (nil = none).
	Faults *faultinject.Injector
}

// RestoreStats reports what a Restore did.
type RestoreStats struct {
	// SnapshotVersion is the rulebase version the snapshot file held (0 =
	// no snapshot).
	SnapshotVersion uint64
	// Replayed is the number of WAL records applied on top.
	Replayed int
	// Version is the restored rulebase version.
	Version uint64
}

// Store is a durable home for one rulebase: a snapshot file plus a
// write-ahead log of every mutation since. Typical lifecycle:
//
//	st, _ := persist.Open(persist.Options{Dir: dir, Fsync: true})
//	stats, _ := st.Restore(rb) // replay snapshot + WAL into rb
//	_ = st.Attach(rb)          // log every subsequent mutation
//	...
//	_ = st.Snapshot()          // optional compaction before exit
//	_ = st.Close()
//
// Close deliberately does NOT snapshot: durability never depends on a clean
// shutdown (that is the entire point of the WAL), and tests exploit this to
// simulate kills.
type Store struct {
	dir       string
	fsync     bool
	snapEvery int
	reg       *obs.Registry
	faults    *faultinject.Injector

	mu          sync.Mutex
	wal         *os.File
	walLen      int64         // durable WAL length in bytes
	records     []core.Change // decoded at Open, consumed by Restore
	lastVersion uint64        // last version durable anywhere (snapshot or WAL)
	snapRead    bool          // lastVersion counts the snapshot (see readSnapshot)
	sinceSnap   int           // appends since the last snapshot
	rb          *core.Rulebase
	unsub       func()
	broken      error // ErrTornWrite / ErrShortRead / first append IO error
	closed      bool
}

// Open opens (or initializes) a persist directory: scans the WAL and
// truncates any torn tail so subsequent appends start at the durable
// boundary. The snapshot is left on disk: Restore decodes it into the
// rulebase, and an Attach with no Restore before it decodes it for its
// version.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("persist: Options.Dir is required")
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = 1024
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating dir: %w", err)
	}
	s := &Store{
		dir:       opts.Dir,
		fsync:     opts.Fsync,
		snapEvery: opts.SnapshotEvery,
		reg:       opts.Obs,
		faults:    opts.Faults,
	}
	s.registerHelp()

	// Scan the WAL: keep the longest valid prefix, drop the torn tail.
	wal, err := os.OpenFile(s.walPath(), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: opening WAL: %w", err)
	}
	data, err := io.ReadAll(wal)
	if err != nil {
		wal.Close()
		return nil, fmt.Errorf("persist: scanning WAL: %w", err)
	}
	short := false
	if cut := s.faults.WALShortRead(len(data)); cut < len(data) {
		data = data[:cut]
		short = true
	}
	recs, durable, torn := DecodeRecords(data)
	s.records = recs
	s.walLen = int64(durable)
	for _, rec := range recs {
		s.lastVersion = max(s.lastVersion, rec.Version)
	}
	switch {
	case short:
		// The cut was in the read, not the file: leave the file alone and
		// refuse to append — we cannot trust our view of the durable tail.
		s.broken = ErrShortRead
	case torn:
		if err := wal.Truncate(int64(durable)); err != nil {
			wal.Close()
			return nil, fmt.Errorf("persist: truncating torn WAL tail: %w", err)
		}
		s.count(MetricTornTails, 1)
	}
	if _, err := wal.Seek(int64(durable), io.SeekStart); err != nil {
		wal.Close()
		return nil, fmt.Errorf("persist: seeking WAL: %w", err)
	}
	s.wal = wal
	return s, nil
}

// Restore rebuilds rb from the durable state: load the snapshot (when one
// exists) into rb, then replay every WAL record beyond it, in order. Records
// at or below the snapshot version are skipped — a crash between snapshot
// rename and WAL reset legitimately leaves such records behind. Must be
// called before Attach and on a fresh rulebase this store will own: a
// snapshot loads only into a fresh rulebase (core.Rulebase.UnmarshalJSON).
func (s *Store) Restore(rb *core.Rulebase) (RestoreStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st RestoreStats
	if s.closed {
		return st, errors.New("persist: store is closed")
	}
	if s.rb != nil {
		return st, errors.New("persist: Restore must precede Attach")
	}
	var err error
	if st.SnapshotVersion, err = s.readSnapshot(rb); err != nil {
		return st, err
	}
	for _, rec := range s.records {
		if rec.Version <= st.SnapshotVersion {
			continue
		}
		if err := rb.ApplyChange(rec); err != nil {
			return st, fmt.Errorf("persist: replaying WAL: %w", err)
		}
		st.Replayed++
	}
	st.Version = rb.Version()
	s.count(MetricReplayed, int64(st.Replayed))
	s.count(MetricRestores, 1)
	return st, nil
}

// readSnapshot loads the snapshot file, when one exists, into rb and returns
// the version it holds (0 without one); lastVersion counts it from then on.
// A snapshot that does not load is an error, and the file is left as it is.
func (s *Store) readSnapshot(rb *core.Rulebase) (uint64, error) {
	data, err := os.ReadFile(s.snapPath())
	if errors.Is(err, os.ErrNotExist) {
		s.snapRead = true
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("persist: reading snapshot: %w", err)
	}
	if err := json.Unmarshal(data, rb); err != nil {
		return 0, fmt.Errorf("persist: loading snapshot %s: %w", s.snapPath(), err)
	}
	s.snapRead = true
	s.lastVersion = max(s.lastVersion, rb.Version())
	return rb.Version(), nil
}

// Attach subscribes to rb's mutation feed so every subsequent mutation is
// appended to the WAL. A full baseline snapshot is taken first when rb's
// version differs from the durable state (mutations made between Restore and
// Attach), and whenever rb holds anything and no Restore came before: such a
// rulebase (seeded, or loaded from a file) has a history of its own, so even
// at the durable version it is not the durable state. With no Restore before
// it, Attach decodes the snapshot for the durable version, and refuses one
// that does not load rather than overwrite it.
func (s *Store) Attach(rb *core.Rulebase) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("persist: store is closed")
	}
	if s.broken != nil {
		return s.broken
	}
	if s.rb != nil {
		return errors.New("persist: already attached")
	}
	foreign := !s.snapRead
	if foreign {
		if _, err := s.readSnapshot(core.NewRulebase()); err != nil {
			return err
		}
	}
	s.rb = rb
	// Registration returns the rulebase version atomically; every mutation
	// beyond it is delivered to onChange, in order. s.mu is held until the
	// baseline snapshot is written, so onChange runs only after it.
	var ver uint64
	s.unsub, ver = rb.SubscribeChanges(s.onChange)
	if ver != s.lastVersion || foreign && ver != 0 {
		return s.snapshotLocked()
	}
	return nil
}

// onChange receives one committed mutation. Deliveries arrive in version
// order, so each is appended as the next WAL record — unless a snapshot taken
// outside a delivery (Attach's baseline, Store.Snapshot) already captured it.
func (s *Store) onChange(ch core.Change) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken != nil || s.closed {
		return
	}
	switch v := ch.Version; {
	case v <= s.lastVersion:
		return
	case v > s.lastVersion+1:
		// The feed is ordered and gap-free, so only a bug gets here. Appending
		// would leave a WAL that Restore cannot replay past the hole.
		s.broken = fmt.Errorf("persist: change version %d does not follow durable version %d", v, s.lastVersion)
		return
	}
	if err := s.appendLocked(ch); err != nil {
		return // store marked broken
	}
	if s.snapEvery > 0 && s.sinceSnap >= s.snapEvery {
		_ = s.snapshotLocked()
	}
}

// appendLocked frames one change and writes it to the WAL, honoring the
// torn-write injector: a torn append writes only a prefix and kills the
// store, exactly as a crash mid-write would.
func (s *Store) appendLocked(ch core.Change) error {
	frame, err := EncodeRecord(ch)
	if err != nil {
		s.broken = err
		return err
	}
	if keep := s.faults.WALTornWrite(len(frame)); keep < len(frame) {
		_, _ = s.wal.Write(frame[:keep])
		s.broken = ErrTornWrite
		return s.broken
	}
	if _, err := s.wal.Write(frame); err != nil {
		s.broken = fmt.Errorf("persist: WAL append: %w", err)
		return s.broken
	}
	if s.fsync {
		start := time.Now()
		if err := s.wal.Sync(); err != nil {
			s.broken = fmt.Errorf("persist: WAL fsync: %w", err)
			return s.broken
		}
		s.observe(MetricFsyncSeconds, time.Since(start).Seconds())
	}
	s.walLen += int64(len(frame))
	s.lastVersion = ch.Version
	s.sinceSnap++
	s.count(MetricWALAppends, 1)
	s.count(MetricWALBytes, int64(len(frame)))
	return nil
}

// Snapshot writes a compacted snapshot of the attached rulebase and resets
// the WAL. Safe to call at any time after Attach.
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("persist: store is closed")
	}
	if s.broken != nil {
		return s.broken
	}
	return s.snapshotLocked()
}

func (s *Store) snapshotLocked() error {
	if s.rb == nil {
		return errors.New("persist: no rulebase attached to snapshot")
	}
	start := time.Now()
	// The marshal is the authoritative cut, and it reports the version it
	// captured: concurrent mutations notified after it will re-arrive
	// through onChange and be deduplicated against that version.
	data, version, err := s.rb.MarshalVersioned()
	if err != nil {
		return fmt.Errorf("persist: marshaling snapshot: %w", err)
	}
	tmp := s.snapPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: creating snapshot temp: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("persist: writing snapshot: %w", err)
	}
	if s.fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("persist: syncing snapshot: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: closing snapshot temp: %w", err)
	}
	if err := os.Rename(tmp, s.snapPath()); err != nil {
		return fmt.Errorf("persist: publishing snapshot: %w", err)
	}
	if s.fsync {
		s.syncDir()
	}
	// The snapshot now owns everything the WAL held; reset it. A crash
	// before the truncate leaves records at or below the snapshot version in
	// the WAL — Restore skips those, so the window is safe.
	if err := s.wal.Truncate(0); err != nil {
		s.broken = fmt.Errorf("persist: resetting WAL: %w", err)
		return s.broken
	}
	if _, err := s.wal.Seek(0, io.SeekStart); err != nil {
		s.broken = fmt.Errorf("persist: rewinding WAL: %w", err)
		return s.broken
	}
	s.walLen = 0
	s.sinceSnap = 0
	s.lastVersion = version
	s.count(MetricSnapshots, 1)
	s.gauge(MetricSnapshotBytes, float64(len(data)))
	s.observe(MetricSnapshotSeconds, time.Since(start).Seconds())
	return nil
}

// Close detaches from the rulebase and closes the WAL without snapshotting
// (see the type comment — durability must never require a clean shutdown).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.unsub != nil {
		s.unsub()
		s.unsub = nil
	}
	if s.wal == nil {
		return nil
	}
	if s.fsync && s.broken == nil {
		_ = s.wal.Sync()
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}

// WALSize returns the durable WAL length in bytes.
func (s *Store) WALSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walLen
}

// Dir returns the persist directory.
func (s *Store) Dir() string { return s.dir }

// Broken returns the error that killed the store (nil while healthy).
func (s *Store) Broken() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.broken
}

func (s *Store) snapPath() string { return filepath.Join(s.dir, snapshotFile) }
func (s *Store) walPath() string  { return filepath.Join(s.dir, walFile) }

// syncDir fsyncs the directory so the snapshot rename is durable; best
// effort (some filesystems refuse directory syncs).
func (s *Store) syncDir() {
	if d, err := os.Open(s.dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

func (s *Store) count(name string, n int64) {
	if s.reg != nil {
		s.reg.Counter(name).Add(n)
	}
}

func (s *Store) gauge(name string, v float64) {
	if s.reg != nil {
		s.reg.Gauge(name).Set(v)
	}
}

func (s *Store) observe(name string, v float64) {
	if s.reg != nil {
		s.reg.Histogram(name, obs.LatencyBuckets).Observe(v)
	}
}

func (s *Store) registerHelp() {
	if s.reg == nil {
		return
	}
	s.reg.Help(MetricWALAppends, "WAL records appended")
	s.reg.Help(MetricWALBytes, "WAL bytes appended (frame headers included)")
	s.reg.Help(MetricFsyncSeconds, "WAL fsync latency")
	s.reg.Help(MetricSnapshots, "compacted rulebase snapshots written")
	s.reg.Help(MetricSnapshotBytes, "size of the last rulebase snapshot")
	s.reg.Help(MetricSnapshotSeconds, "snapshot write latency (marshal+write+fsync+rename)")
	s.reg.Help(MetricReplayed, "WAL records replayed during restore")
	s.reg.Help(MetricRestores, "successful restores")
	s.reg.Help(MetricTornTails, "torn/corrupt WAL tails discarded at open")
}
