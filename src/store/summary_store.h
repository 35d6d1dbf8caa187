// Persistent, disk-backed store for cross-program function summaries.
//
// The ipa::CrossProgramCache makes repeated helpers cheap *within* one
// process; this store makes them cheap *across* processes. It serializes
// ipa::PortableSummary records keyed by their 128-bit content addresses into
// a single binary file, so a later `sspar-analyze` run (or a long-lived
// `--serve` daemon restart) starts from a warm cache instead of paying full
// re-summarization.
//
// File format (little-endian, version 2):
//
//   header:  magic "SSPS" | u32 version | u64 next_generation
//   record*: u64 key.hi | u64 key.lo | u64 generation
//            | u32 payload_size | u64 payload_fnv | payload bytes
//
// The payload is a self-contained binary serialization of one
// PortableSummary (see serialize_summary/deserialize_summary). Robustness
// contract:
//
//   * A wrong magic or unsupported version rejects the whole file (it is
//     quarantined by renaming to "<path>.corrupt" so a later flush can
//     write a fresh store); the run proceeds with an empty store.
//   * A truncated or checksum-mismatched record stops the load at the last
//     good record — everything before it is kept, nothing after it is
//     trusted. Bad files never crash the analyzer and never surface a
//     corrupted summary (the checksum covers the payload bytes and the
//     deserializer bounds-checks every field).
//   * flush() writes the entire store to "<path>.tmp", fsyncs it, and
//     renames it over the original, so a killed process leaves either the
//     old file or the new one, never a torn mix.
//
// Crash-safe journal (StoreOptions::journal): between full flushes the
// store appends write-ahead records to the "<path>.journal" sidecar — one
// fsync'd batch per absorb() — and commit() only pays the O(store) atomic
// rewrite when the journal grows past journal_checkpoint_bytes or eviction
// is due. On open() the journal is replayed over the base file: 'A' (add)
// records re-insert summaries absorbed since the last checkpoint, 'T'
// (touch) records re-apply generation bumps. A truncated or corrupted
// journal tail is discarded at the last good record (and physically
// truncated so later appends never follow garbage), so a SIGKILL at ANY
// point — including mid-rename and mid-append, see the store.* fault points
// in support/faultpoint.h — loses at most the in-flight absorb batch. The
// crash-matrix test (tests/store_crash_test.cpp) kills a child process at
// every registered store.* fault point and asserts exactly this.
//
// Merge semantics are first-writer-wins, matching the in-memory cache: a
// record already present keeps its payload (identical key => identical
// summary, so either copy serves); absorbing a cache only ADDS records for
// new keys. Each record carries a generation — the store's monotonic flush
// counter — bumped when the record's key was HIT during the absorbed run.
// When the store exceeds its size cap, flush() evicts lowest-generation
// records first (ties broken by key, so eviction is deterministic): entries
// that keep getting used stay warm, dead code ages out.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "ipa/cross_cache.h"

namespace sspar::store {

// --- Record payload serialization (exposed for the robustness tests) --------

// Self-contained binary encoding of one PortableSummary.
std::string serialize_summary(const ipa::PortableSummary& summary);

// Null on any malformed input: truncated buffer, out-of-range tag, oversized
// length prefix, trailing garbage. Never reads past `bytes`.
std::optional<ipa::PortableSummary> deserialize_summary(std::string_view bytes);

// 64-bit FNV-1a of a byte string — the per-record payload checksum.
uint64_t payload_checksum(std::string_view bytes);

// ---------------------------------------------------------------------------

struct StoreOptions {
  // Maximum records kept across a flush(); lowest generations evicted first.
  size_t max_entries = 4096;
  // Crash-safe write-ahead journal: absorb() appends fsync'd WAL records to
  // "<path>.journal" and commit() defers the full atomic rewrite until the
  // journal exceeds journal_checkpoint_bytes (or eviction is due).
  bool journal = false;
  size_t journal_checkpoint_bytes = 1u << 20;
};

class SummaryStore {
 public:
  struct Stats {
    size_t loaded = 0;    // records read from disk at open()
    size_t rejected = 0;  // corrupt/truncated records (or 1 whole bad file) skipped
    size_t absorbed = 0;  // new records added from absorb() since open
    size_t evicted = 0;   // records dropped by the size cap at flush()
    size_t flushed = 0;   // records written by the last flush()
    // Journal counters (always 0 with StoreOptions::journal off).
    size_t journal_replayed = 0;  // 'A' records decoded from the journal at open()
    size_t journal_appended = 0;  // WAL records appended by absorb() since open
  };

  explicit SummaryStore(std::string path, StoreOptions options = {});
  ~SummaryStore();

  // Loads the on-disk records (if the file exists), then — in journal mode —
  // replays the "<path>.journal" sidecar over them ('A' records insert
  // first-writer-wins, 'T' records bump generations; a corrupt tail is
  // dropped at the last good record and physically truncated). Safe on
  // missing files (starts empty). Returns false only when the base file
  // existed but was rejected wholesale (bad magic/version) — the store
  // still opens empty (plus any journal records) and quarantines the bad
  // file.
  bool open();

  // Inserts every record into `cache` as a PRELOADED entry (cache hits on
  // these count as persistent-store hits). Call once per cache, before any
  // analysis. Returns the number of entries inserted.
  size_t preload(ipa::CrossProgramCache& cache);

  // First-writer-wins merge of what changed in the cache since its previous
  // absorb (CrossProgramCache::take_changes): records for new content keys
  // are added at the current generation; records whose key was hit have
  // their generation bumped (so eviction keeps warm entries), journaling one
  // Touch per record per generation. Existing payloads are never
  // overwritten. Thread-safe; a server absorbs after every request. A cache
  // feeds one store: the absorb consumes its change list.
  void absorb(ipa::CrossProgramCache& cache);

  // Evicts down to the size cap, then atomically rewrites the backing file
  // (write "<path>.tmp", fsync, rename over `path`) and truncates the
  // journal — every journaled record is now in the base file. Returns false
  // on I/O failure (the old file is left untouched). Thread-safe.
  bool flush();

  // Durability policy hook for per-request orchestration: with the journal
  // off this is exactly flush(); with it on, the WAL batches fsync'd by
  // absorb() already make the run durable, so commit() only performs the
  // full rewrite when the journal passed journal_checkpoint_bytes, the
  // record count exceeds the cap (eviction), or a journal write previously
  // failed (degraded mode: fall back to full flushes). Thread-safe.
  bool commit();

  size_t size() const;
  Stats stats() const;
  const std::string& path() const { return path_; }

 private:
  struct Record {
    std::string payload;  // serialized PortableSummary, written verbatim
    uint64_t generation = 0;
  };

  bool load_file(const std::string& contents);
  // Replays "<path>.journal" into records_ (lock held). Truncates the file
  // to the last good record when the tail is torn or corrupt.
  void replay_journal_locked();
  // Lazily opens the journal fd (O_APPEND); false on failure.
  bool ensure_journal_locked();
  // Appends one framed batch and fsyncs it; flips journal_failed_ on error.
  void append_journal_locked(const std::string& batch, size_t record_count);

  std::string path_;
  StoreOptions options_;
  mutable std::mutex mutex_;
  std::map<ipa::CacheKey, Record> records_;
  uint64_t generation_ = 1;  // current run's generation (monotonic across flushes)
  Stats stats_;
  int journal_fd_ = -1;          // lazily opened append fd for the WAL sidecar
  size_t journal_bytes_ = 0;     // good bytes on disk (replayed + appended)
  bool journal_failed_ = false;  // a WAL write failed; commit() full-flushes
};

}  // namespace sspar::store
