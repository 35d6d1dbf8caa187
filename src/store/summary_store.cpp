#include "store/summary_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "support/faultpoint.h"

namespace sspar::store {

namespace {

// --- Binary encoding helpers ------------------------------------------------
// Fixed-width little-endian integers, length-prefixed strings, a presence
// byte for optionals. The reader bounds-checks every field and reports
// failure instead of reading past the buffer, so a corrupted payload can
// never surface a malformed summary.

class Writer {
 public:
  void u8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
  void u64(uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
  void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s) {
    u32(static_cast<uint32_t>(s.size()));
    out_.append(s.data(), s.size());
  }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool u8(uint8_t& v) {
    if (pos_ + 1 > bytes_.size()) return fail();
    v = static_cast<uint8_t>(bytes_[pos_++]);
    return true;
  }
  bool u32(uint32_t& v) {
    if (pos_ + 4 > bytes_.size()) return fail();
    v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes_[pos_ + i])) << (8 * i);
    }
    pos_ += 4;
    return true;
  }
  bool u64(uint64_t& v) {
    if (pos_ + 8 > bytes_.size()) return fail();
    v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_ + i])) << (8 * i);
    }
    pos_ += 8;
    return true;
  }
  bool i64(int64_t& v) {
    uint64_t raw = 0;
    if (!u64(raw)) return false;
    v = static_cast<int64_t>(raw);
    return true;
  }
  bool boolean(bool& v) {
    uint8_t raw = 0;
    if (!u8(raw)) return false;
    if (raw > 1) return fail();
    v = raw != 0;
    return true;
  }
  bool str(std::string& s) {
    uint32_t size = 0;
    if (!u32(size)) return false;
    if (pos_ + size > bytes_.size()) return fail();
    s.assign(bytes_.data() + pos_, size);
    pos_ += size;
    return true;
  }
  // Element counts are bounds-checked against the remaining bytes (each
  // element costs at least one byte), so a corrupted count cannot trigger a
  // multi-gigabyte allocation.
  bool count(uint32_t& n) {
    if (!u32(n)) return false;
    if (n > bytes_.size() - pos_) return fail();
    return true;
  }
  bool done() const { return ok_ && pos_ == bytes_.size(); }
  bool ok() const { return ok_; }

 private:
  bool fail() {
    ok_ = false;
    return false;
  }
  std::string_view bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// --- PortableSummary field encoders -----------------------------------------

void put_expr(Writer& w, const ipa::PortableExpr& e) {
  w.u8(static_cast<uint8_t>(e.kind));
  w.i64(e.value);
  w.str(e.symbol);
  w.u32(static_cast<uint32_t>(e.operands.size()));
  for (const auto& op : e.operands) put_expr(w, op);
  w.u32(static_cast<uint32_t>(e.coeffs.size()));
  for (int64_t c : e.coeffs) w.i64(c);
}

bool get_expr(Reader& r, ipa::PortableExpr& e, int depth = 0) {
  // Expression trees in practice are a handful of levels deep; a corrupted
  // operand count must not recurse the stack away.
  if (depth > 64) return false;
  uint8_t kind = 0;
  if (!r.u8(kind)) return false;
  if (kind > static_cast<uint8_t>(sym::ExprKind::Bottom)) return false;
  e.kind = static_cast<sym::ExprKind>(kind);
  if (!r.i64(e.value) || !r.str(e.symbol)) return false;
  uint32_t n = 0;
  if (!r.count(n)) return false;
  e.operands.resize(n);
  for (auto& op : e.operands) {
    if (!get_expr(r, op, depth + 1)) return false;
  }
  if (!r.count(n)) return false;
  e.coeffs.resize(n);
  for (auto& c : e.coeffs) {
    if (!r.i64(c)) return false;
  }
  return true;
}

void put_opt_expr(Writer& w, const std::optional<ipa::PortableExpr>& e) {
  w.boolean(e.has_value());
  if (e) put_expr(w, *e);
}

bool get_opt_expr(Reader& r, std::optional<ipa::PortableExpr>& e) {
  bool present = false;
  if (!r.boolean(present)) return false;
  if (!present) {
    e.reset();
    return true;
  }
  e.emplace();
  return get_expr(r, *e);
}

void put_range(Writer& w, const ipa::PortableRange& range) {
  put_opt_expr(w, range.lo);
  put_opt_expr(w, range.hi);
}

bool get_range(Reader& r, ipa::PortableRange& range) {
  return get_opt_expr(r, range.lo) && get_opt_expr(r, range.hi);
}

void put_strings(Writer& w, const std::vector<std::string>& v) {
  w.u32(static_cast<uint32_t>(v.size()));
  for (const auto& s : v) w.str(s);
}

bool get_strings(Reader& r, std::vector<std::string>& v) {
  uint32_t n = 0;
  if (!r.count(n)) return false;
  v.resize(n);
  for (auto& s : v) {
    if (!r.str(s)) return false;
  }
  return true;
}

void put_effect(Writer& w, const ipa::PortableEffect& e) {
  w.str(e.array);
  w.u64(e.dims);
  put_opt_expr(w, e.index);
  put_range(w, e.index_range);
  put_range(w, e.value);
  w.boolean(e.conditional);
  w.boolean(e.from_inner);
  w.u32(static_cast<uint32_t>(e.guards.size()));
  for (const auto& g : e.guards) {
    w.str(g.array);
    put_expr(w, g.index);
    w.i64(g.min);
  }
  w.str(e.via_array);
  put_range(w, e.via_domain);
  w.str(e.post_inc_subscript);
}

bool get_effect(Reader& r, ipa::PortableEffect& e) {
  uint64_t dims = 0;
  if (!r.str(e.array) || !r.u64(dims)) return false;
  e.dims = static_cast<size_t>(dims);
  if (!get_opt_expr(r, e.index) || !get_range(r, e.index_range) || !get_range(r, e.value)) {
    return false;
  }
  if (!r.boolean(e.conditional) || !r.boolean(e.from_inner)) return false;
  uint32_t n = 0;
  if (!r.count(n)) return false;
  e.guards.resize(n);
  for (auto& g : e.guards) {
    if (!r.str(g.array) || !get_expr(r, g.index) || !r.i64(g.min)) return false;
  }
  return r.str(e.via_array) && get_range(r, e.via_domain) && r.str(e.post_inc_subscript);
}

void put_facts(Writer& w, const ipa::PortableArrayFacts& f) {
  w.u32(static_cast<uint32_t>(f.values.size()));
  for (const auto& v : f.values) {
    put_expr(w, v.lo);
    put_expr(w, v.hi);
    put_range(w, v.value);
  }
  w.u32(static_cast<uint32_t>(f.steps.size()));
  for (const auto& s : f.steps) {
    put_expr(w, s.lo);
    put_expr(w, s.hi);
    put_range(w, s.step);
  }
  w.u32(static_cast<uint32_t>(f.injectives.size()));
  for (const auto& i : f.injectives) {
    put_expr(w, i.lo);
    put_expr(w, i.hi);
    w.boolean(i.min_value.has_value());
    if (i.min_value) w.i64(*i.min_value);
    w.boolean(i.from_chain);
  }
  w.u32(static_cast<uint32_t>(f.identities.size()));
  for (const auto& i : f.identities) {
    put_expr(w, i.lo);
    put_expr(w, i.hi);
  }
}

bool get_facts(Reader& r, ipa::PortableArrayFacts& f) {
  uint32_t n = 0;
  if (!r.count(n)) return false;
  f.values.resize(n);
  for (auto& v : f.values) {
    if (!get_expr(r, v.lo) || !get_expr(r, v.hi) || !get_range(r, v.value)) return false;
  }
  if (!r.count(n)) return false;
  f.steps.resize(n);
  for (auto& s : f.steps) {
    if (!get_expr(r, s.lo) || !get_expr(r, s.hi) || !get_range(r, s.step)) return false;
  }
  if (!r.count(n)) return false;
  f.injectives.resize(n);
  for (auto& i : f.injectives) {
    if (!get_expr(r, i.lo) || !get_expr(r, i.hi)) return false;
    bool present = false;
    if (!r.boolean(present)) return false;
    if (present) {
      int64_t v = 0;
      if (!r.i64(v)) return false;
      i.min_value = v;
    } else {
      i.min_value.reset();
    }
    if (!r.boolean(i.from_chain)) return false;
  }
  if (!r.count(n)) return false;
  f.identities.resize(n);
  for (auto& i : f.identities) {
    if (!get_expr(r, i.lo) || !get_expr(r, i.hi)) return false;
  }
  return true;
}

}  // namespace

std::string serialize_summary(const ipa::PortableSummary& s) {
  Writer w;
  w.str(s.function);
  put_strings(w, s.may_write_scalars);
  put_strings(w, s.may_write_arrays);
  put_strings(w, s.definite_scalar_writes);
  put_strings(w, s.exposed_scalar_reads);
  w.boolean(s.writes_array_params);
  w.boolean(s.analyzable);
  w.boolean(s.opaque);
  w.str(s.failure);
  w.u32(s.failure_line);
  w.u32(s.failure_column);
  w.u32(static_cast<uint32_t>(s.scalar_finals.size()));
  for (const auto& [name, range] : s.scalar_finals) {
    w.str(name);
    put_range(w, range);
  }
  w.u32(static_cast<uint32_t>(s.writes.size()));
  for (const auto& e : s.writes) put_effect(w, e);
  w.u32(static_cast<uint32_t>(s.reads.size()));
  for (const auto& e : s.reads) put_effect(w, e);
  w.u32(static_cast<uint32_t>(s.end_facts.size()));
  for (const auto& [array, facts] : s.end_facts) {
    w.str(array);
    put_facts(w, facts);
  }
  w.boolean(s.return_value.has_value());
  if (s.return_value) put_range(w, *s.return_value);
  w.u64(s.entry_fingerprint);
  return w.take();
}

std::optional<ipa::PortableSummary> deserialize_summary(std::string_view bytes) {
  Reader r(bytes);
  ipa::PortableSummary s;
  if (!r.str(s.function) || !get_strings(r, s.may_write_scalars) ||
      !get_strings(r, s.may_write_arrays) || !get_strings(r, s.definite_scalar_writes) ||
      !get_strings(r, s.exposed_scalar_reads)) {
    return std::nullopt;
  }
  if (!r.boolean(s.writes_array_params) || !r.boolean(s.analyzable) ||
      !r.boolean(s.opaque) || !r.str(s.failure) || !r.u32(s.failure_line) ||
      !r.u32(s.failure_column)) {
    return std::nullopt;
  }
  uint32_t n = 0;
  if (!r.count(n)) return std::nullopt;
  for (uint32_t i = 0; i < n; ++i) {
    std::string name;
    ipa::PortableRange range;
    if (!r.str(name) || !get_range(r, range)) return std::nullopt;
    s.scalar_finals.emplace(std::move(name), std::move(range));
  }
  if (!r.count(n)) return std::nullopt;
  s.writes.resize(n);
  for (auto& e : s.writes) {
    if (!get_effect(r, e)) return std::nullopt;
  }
  if (!r.count(n)) return std::nullopt;
  s.reads.resize(n);
  for (auto& e : s.reads) {
    if (!get_effect(r, e)) return std::nullopt;
  }
  if (!r.count(n)) return std::nullopt;
  for (uint32_t i = 0; i < n; ++i) {
    std::string array;
    ipa::PortableArrayFacts facts;
    if (!r.str(array) || !get_facts(r, facts)) return std::nullopt;
    s.end_facts.emplace(std::move(array), std::move(facts));
  }
  bool has_return = false;
  if (!r.boolean(has_return)) return std::nullopt;
  if (has_return) {
    s.return_value.emplace();
    if (!get_range(r, *s.return_value)) return std::nullopt;
  }
  if (!r.u64(s.entry_fingerprint)) return std::nullopt;
  if (!r.done()) return std::nullopt;  // trailing garbage is corruption too
  return s;
}

uint64_t payload_checksum(std::string_view bytes) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

// --- SummaryStore ------------------------------------------------------------

namespace {

constexpr char kMagic[4] = {'S', 'S', 'P', 'S'};
// v2: injective facts carry the from_chain (affine-injective provenance)
// flag. v1 stores quarantine wholesale on open, per the robustness contract.
constexpr uint32_t kVersion = 2;

// Journal record types ("<path>.journal" sidecar, little-endian framing:
// u8 type | u32 body_size | u64 body_fnv | body).
constexpr char kJournalAdd = 'A';    // body: key.hi u64 | key.lo u64 | gen u64 | payload
constexpr char kJournalTouch = 'T';  // body: key.hi u64 | key.lo u64 | gen u64

void put_file_u32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}
void put_file_u64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

uint32_t get_raw_u32(std::string_view bytes, size_t pos) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[pos + i])) << (8 * i);
  }
  return v;
}
uint64_t get_raw_u64(std::string_view bytes, size_t pos) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[pos + i])) << (8 * i);
  }
  return v;
}

// Frames one journal record: type byte, body length, FNV-1a of the body.
void put_journal_record(std::string& out, char type, const std::string& body) {
  out.push_back(type);
  put_file_u32(out, static_cast<uint32_t>(body.size()));
  put_file_u64(out, payload_checksum(body));
  out.append(body);
}

bool write_fully(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

SummaryStore::SummaryStore(std::string path, StoreOptions options)
    : path_(std::move(path)), options_(options) {}

SummaryStore::~SummaryStore() {
  if (journal_fd_ >= 0) ::close(journal_fd_);
}

bool SummaryStore::open() {
  SSPAR_FAULTPOINT("store.open.pre_load");
  std::string contents;
  {
    std::ifstream in(path_, std::ios::binary);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      contents = buffer.str();
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  bool ok = true;
  // A missing or freshly touched base file just starts empty.
  if (!contents.empty() && !load_file(contents)) {
    // Whole-file reject (bad magic/version): quarantine so the next flush can
    // lay down a fresh store without fighting the corrupt bytes.
    records_.clear();
    stats_.rejected += 1;
    std::rename(path_.c_str(), (path_ + ".corrupt").c_str());
    ok = false;
  }
  SSPAR_FAULTPOINT("store.open.pre_replay");
  if (options_.journal) replay_journal_locked();
  return ok;
}

bool SummaryStore::load_file(const std::string& contents) {
  Reader r(contents);
  char magic[4] = {};
  for (char& c : magic) {
    uint8_t b = 0;
    if (!r.u8(b)) return false;
    c = static_cast<char>(b);
  }
  if (magic[0] != kMagic[0] || magic[1] != kMagic[1] || magic[2] != kMagic[2] ||
      magic[3] != kMagic[3]) {
    return false;
  }
  uint32_t version = 0;
  if (!r.u32(version) || version != kVersion) return false;
  uint64_t next_generation = 0;
  if (!r.u64(next_generation)) return false;
  generation_ = next_generation > 0 ? next_generation : 1;
  // Records: load until the buffer ends cleanly or a record is truncated /
  // checksum-mismatched — keep everything before the first bad record.
  while (!r.done()) {
    ipa::CacheKey key;
    uint64_t generation = 0;
    uint32_t payload_size = 0;
    uint64_t checksum = 0;
    std::string payload;
    if (!r.u64(key.hi) || !r.u64(key.lo) || !r.u64(generation) ||
        !r.u32(payload_size) || !r.u64(checksum)) {
      stats_.rejected += 1;
      break;
    }
    // Reuse the length-prefixed string reader by re-encoding: payload_size
    // was already consumed, so read the raw bytes directly.
    payload.resize(payload_size);
    {
      // Reader has no raw-bytes API; emulate with per-byte reads kept simple
      // (load happens once per process, not per request).
      bool ok = true;
      for (uint32_t i = 0; i < payload_size; ++i) {
        uint8_t b = 0;
        if (!r.u8(b)) {
          ok = false;
          break;
        }
        payload[i] = static_cast<char>(b);
      }
      if (!ok) {
        stats_.rejected += 1;
        break;
      }
    }
    if (payload_checksum(payload) != checksum || !deserialize_summary(payload)) {
      // Checksum or structural corruption: drop this record, keep loading —
      // the framing was intact, so subsequent records are still addressable.
      stats_.rejected += 1;
      continue;
    }
    records_[key] = Record{std::move(payload), generation};
    stats_.loaded += 1;
  }
  return true;
}

void SummaryStore::replay_journal_locked() {
  const std::string jpath = path_ + ".journal";
  std::string contents;
  {
    std::ifstream in(jpath, std::ios::binary);
    if (!in) return;  // no journal: nothing absorbed since the last flush
    std::ostringstream buffer;
    buffer << in.rdbuf();
    contents = buffer.str();
  }
  constexpr size_t kFrame = 1 + 4 + 8;  // type | body_size | body_fnv
  constexpr size_t kKeyGen = 8 + 8 + 8;  // key.hi | key.lo | generation
  size_t pos = 0;
  size_t good = 0;  // bytes up to and including the last intact record
  uint64_t max_generation = 0;
  while (pos < contents.size()) {
    if (contents.size() - pos < kFrame) break;  // torn frame header
    const char type = contents[pos];
    const uint32_t body_size = get_raw_u32(contents, pos + 1);
    const uint64_t body_fnv = get_raw_u64(contents, pos + 5);
    if (type != kJournalAdd && type != kJournalTouch) break;
    if (contents.size() - pos - kFrame < body_size) break;  // torn body
    std::string_view body(contents.data() + pos + kFrame, body_size);
    if (payload_checksum(body) != body_fnv) break;  // corrupt record
    if (body_size < kKeyGen || (type == kJournalTouch && body_size != kKeyGen)) break;
    ipa::CacheKey key;
    key.hi = get_raw_u64(body, 0);
    key.lo = get_raw_u64(body, 8);
    const uint64_t generation = get_raw_u64(body, 16);
    max_generation = std::max(max_generation, generation);
    if (type == kJournalAdd) {
      // Counted whether or not the key is already in the base file: a
      // checkpoint that completed its rename but died before truncating the
      // journal leaves every record duplicated, and the count must not
      // depend on which side of that instant the crash landed.
      stats_.journal_replayed += 1;
      std::string payload(body.substr(kKeyGen));
      if (records_.find(key) == records_.end() && deserialize_summary(payload)) {
        records_.emplace(key, Record{std::move(payload), generation});
      }
    } else {
      auto it = records_.find(key);
      if (it != records_.end() && generation > it->second.generation) {
        it->second.generation = generation;
      }
    }
    pos += kFrame + body_size;
    good = pos;
  }
  journal_bytes_ = good;
  if (good != contents.size()) {
    // Torn or corrupt tail: drop it at the last good record and truncate the
    // file so later appends never land after garbage.
    stats_.rejected += 1;
    ::truncate(jpath.c_str(), static_cast<off_t>(good));
  }
  // Replayed generations must stay in the past relative to this run's.
  if (max_generation >= generation_) generation_ = max_generation + 1;
}

bool SummaryStore::ensure_journal_locked() {
  if (journal_fd_ >= 0) return true;
  journal_fd_ = ::open((path_ + ".journal").c_str(),
                       O_CREAT | O_WRONLY | O_APPEND | O_CLOEXEC, 0644);
  return journal_fd_ >= 0;
}

void SummaryStore::append_journal_locked(const std::string& batch, size_t record_count) {
  if (journal_failed_) return;  // degraded mode: commit() full-flushes instead
  if (SSPAR_FAULTPOINT_FAIL("store.journal.pre_append") || !ensure_journal_locked() ||
      !write_fully(journal_fd_, batch)) {
    journal_failed_ = true;
    return;
  }
  SSPAR_FAULTPOINT("store.journal.pre_sync");
  if (::fsync(journal_fd_) != 0) {
    journal_failed_ = true;
    return;
  }
  SSPAR_FAULTPOINT("store.journal.post_append");
  journal_bytes_ += batch.size();
  stats_.journal_appended += record_count;
}

size_t SummaryStore::preload(ipa::CrossProgramCache& cache) {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t inserted = 0;
  for (const auto& [key, record] : records_) {
    auto summary = deserialize_summary(record.payload);
    if (!summary) continue;  // open() validated these; belt and braces
    cache.insert_preloaded(key, std::move(*summary));
    ++inserted;
  }
  return inserted;
}

void SummaryStore::absorb(ipa::CrossProgramCache& cache) {
  std::vector<ipa::CrossProgramCache::Snapshot> entries = cache.take_changes();
  std::lock_guard<std::mutex> lock(mutex_);
  std::string batch;       // WAL records for this absorb, one fsync at the end
  size_t batch_count = 0;  // (journal mode only; stays empty otherwise)
  for (const auto& entry : entries) {
    auto it = records_.find(entry.key);
    if (it != records_.end()) {
      // First writer wins: never overwrite the payload. A key that was HIT
      // this run is warm — bump its generation so eviction spares it, once
      // per generation: a record already at the current one needs no Touch.
      if (entry.hits > 0 && it->second.generation != generation_) {
        it->second.generation = generation_;
        if (options_.journal) {
          std::string body;
          put_file_u64(body, entry.key.hi);
          put_file_u64(body, entry.key.lo);
          put_file_u64(body, generation_);
          put_journal_record(batch, kJournalTouch, body);
          batch_count += 1;
        }
      }
      continue;
    }
    if (!entry.summary) continue;
    std::string payload = serialize_summary(*entry.summary);
    if (options_.journal) {
      std::string body;
      put_file_u64(body, entry.key.hi);
      put_file_u64(body, entry.key.lo);
      put_file_u64(body, generation_);
      body.append(payload);
      put_journal_record(batch, kJournalAdd, body);
      batch_count += 1;
    }
    records_.emplace(entry.key, Record{std::move(payload), generation_});
    stats_.absorbed += 1;
  }
  if (!batch.empty()) append_journal_locked(batch, batch_count);
}

bool SummaryStore::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Evict down to the cap: lowest generation (coldest) first, key order
  // breaking ties so the survivor set is deterministic.
  if (records_.size() > options_.max_entries) {
    std::vector<std::pair<uint64_t, ipa::CacheKey>> order;
    order.reserve(records_.size());
    for (const auto& [key, record] : records_) order.emplace_back(record.generation, key);
    std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first < b.first : a.second < b.second;
    });
    size_t excess = records_.size() - options_.max_entries;
    for (size_t i = 0; i < excess; ++i) {
      records_.erase(order[i].second);
      stats_.evicted += 1;
    }
  }
  std::string out;
  out.append(kMagic, 4);
  put_file_u32(out, kVersion);
  put_file_u64(out, generation_ + 1);  // the NEXT run's generation
  for (const auto& [key, record] : records_) {
    put_file_u64(out, key.hi);
    put_file_u64(out, key.lo);
    put_file_u64(out, record.generation);
    put_file_u32(out, static_cast<uint32_t>(record.payload.size()));
    put_file_u64(out, payload_checksum(record.payload));
    out.append(record.payload);
  }
  if (SSPAR_FAULTPOINT_FAIL("store.flush.pre_write")) return false;
  const std::string tmp = path_ + ".tmp";
  // POSIX fd, not ofstream: the tmp file must be fsync'd BEFORE the rename,
  // or a crash right after the rename can publish a file whose bytes never
  // reached disk.
  int fd = ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  if (!write_fully(fd, out)) {
    ::close(fd);
    std::remove(tmp.c_str());
    return false;
  }
  if (SSPAR_FAULTPOINT_FAIL("store.flush.pre_sync") || ::fsync(fd) != 0) {
    ::close(fd);
    std::remove(tmp.c_str());
    return false;
  }
  ::close(fd);
  if (SSPAR_FAULTPOINT_FAIL("store.flush.pre_rename") ||
      std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  SSPAR_FAULTPOINT("store.flush.post_rename");
  stats_.flushed = records_.size();
  if (options_.journal) {
    // Every journaled record is in the base file now; an O_APPEND fd keeps
    // appending correctly after the truncate.
    if (journal_fd_ >= 0) {
      ::ftruncate(journal_fd_, 0);
    } else {
      ::truncate((path_ + ".journal").c_str(), 0);  // ENOENT is fine
    }
    journal_bytes_ = 0;
  }
  return true;
}

bool SummaryStore::commit() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (options_.journal && !journal_failed_ &&
        records_.size() <= options_.max_entries &&
        journal_bytes_ < options_.journal_checkpoint_bytes) {
      // The WAL batches absorb() fsync'd already make this run durable; the
      // full O(store) rewrite waits for a checkpoint trigger.
      return true;
    }
  }
  return flush();
}

size_t SummaryStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

SummaryStore::Stats SummaryStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace sspar::store
