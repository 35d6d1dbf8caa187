// Persistent summary store: payload round-trips, corruption robustness
// (truncation, bit flips, version/magic mismatch), eviction, concurrent
// first-writer-wins absorbs, and warm-start batch runs whose reports are
// byte-identical to their cold-run predecessors.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "driver/json_report.h"
#include "driver/store_session.h"
#include "store/summary_store.h"
#include "support/faultpoint.h"
#include "support/json.h"

namespace sspar::store {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "sspar_store_test_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

ipa::PortableExpr sym_expr(const std::string& name) {
  ipa::PortableExpr e;
  e.kind = sym::ExprKind::Sym;
  e.symbol = name;
  return e;
}

ipa::PortableExpr const_expr(int64_t v) {
  ipa::PortableExpr e;
  e.kind = sym::ExprKind::Const;
  e.value = v;
  return e;
}

// A summary exercising every field of the portable mirror, including nested
// expression trees, guards, end facts, and the unanalyzable-failure payload.
ipa::PortableSummary rich_summary() {
  ipa::PortableSummary s;
  s.function = "kernel";
  s.may_write_scalars = {"acc", "count"};
  s.may_write_arrays = {"a", "b"};
  s.definite_scalar_writes = {"acc"};
  s.exposed_scalar_reads = {"n"};
  s.writes_array_params = true;
  s.analyzable = true;
  s.opaque = false;
  ipa::PortableExpr add;
  add.kind = sym::ExprKind::Add;
  add.value = 3;
  add.operands = {sym_expr("n"), sym_expr("m")};
  add.coeffs = {2, -1};
  s.scalar_finals["acc"] = ipa::PortableRange{const_expr(0), add};
  ipa::PortableEffect effect;
  effect.array = "a";
  effect.dims = 2;
  effect.index = add;
  effect.index_range = ipa::PortableRange{const_expr(0), sym_expr("n")};
  effect.value = ipa::PortableRange{std::nullopt, const_expr(7)};
  effect.conditional = true;
  effect.from_inner = true;
  effect.guards.push_back(ipa::PortableGuard{"idx", sym_expr("i"), 1});
  effect.via_array = "idx";
  effect.via_domain = ipa::PortableRange{const_expr(1), sym_expr("n")};
  effect.post_inc_subscript = "cursor";
  s.writes.push_back(effect);
  s.reads.push_back(effect);
  ipa::PortableArrayFacts facts;
  facts.values.push_back(ipa::PortableValueFact{
      const_expr(0), sym_expr("n"), ipa::PortableRange{const_expr(0), sym_expr("n")}});
  facts.steps.push_back(ipa::PortableStepFact{
      const_expr(0), sym_expr("n"), ipa::PortableRange{const_expr(1), const_expr(1)}});
  ipa::PortableInjectiveFact injective{const_expr(0), sym_expr("n"), 0};
  injective.min_value = 4;
  facts.injectives.push_back(injective);
  facts.identities.push_back(ipa::PortableIdentityFact{const_expr(0), sym_expr("n")});
  s.end_facts["idx"] = facts;
  s.return_value = ipa::PortableRange{const_expr(0), sym_expr("n")};
  s.entry_fingerprint = 0x1234abcd5678ull;
  return s;
}

ipa::PortableSummary unanalyzable_summary() {
  ipa::PortableSummary s;
  s.function = "rec";
  s.may_write_scalars = {"acc"};
  s.analyzable = false;
  s.failure = "recursive";
  s.failure_line = 12;
  s.failure_column = 5;
  return s;
}

// --------------------------------------------------------------------------
// Payload serialization
// --------------------------------------------------------------------------

TEST(SummarySerialization, RichSummaryRoundTripsByteIdentically) {
  const ipa::PortableSummary original = rich_summary();
  const std::string bytes = serialize_summary(original);
  auto decoded = deserialize_summary(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->function, "kernel");
  EXPECT_EQ(decoded->may_write_scalars, original.may_write_scalars);
  EXPECT_EQ(decoded->scalar_finals.size(), 1u);
  ASSERT_EQ(decoded->writes.size(), 1u);
  EXPECT_EQ(decoded->writes[0].guards.size(), 1u);
  EXPECT_EQ(decoded->writes[0].post_inc_subscript, "cursor");
  EXPECT_EQ(decoded->end_facts.count("idx"), 1u);
  EXPECT_EQ(decoded->entry_fingerprint, original.entry_fingerprint);
  ASSERT_TRUE(decoded->return_value.has_value());
  // Re-encoding the decoded summary must reproduce the exact bytes — the
  // encoder/decoder pair loses nothing.
  EXPECT_EQ(serialize_summary(*decoded), bytes);
}

TEST(SummarySerialization, UnanalyzableSummaryCarriesFailure) {
  const std::string bytes = serialize_summary(unanalyzable_summary());
  auto decoded = deserialize_summary(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->analyzable);
  EXPECT_EQ(decoded->failure, "recursive");
  EXPECT_EQ(decoded->failure_line, 12u);
  EXPECT_EQ(decoded->failure_column, 5u);
  EXPECT_EQ(serialize_summary(*decoded), bytes);
}

TEST(SummarySerialization, EveryTruncationIsRejected) {
  const std::string bytes = serialize_summary(rich_summary());
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(deserialize_summary(std::string_view(bytes.data(), len)).has_value())
        << "prefix of length " << len << " parsed";
  }
}

TEST(SummarySerialization, TrailingGarbageIsRejected) {
  std::string bytes = serialize_summary(rich_summary());
  bytes.push_back('\0');
  EXPECT_FALSE(deserialize_summary(bytes).has_value());
}

TEST(SummarySerialization, OversizedCountsAreRejectedWithoutAllocating) {
  // A payload claiming 2^31 strings must fail the remaining-bytes check, not
  // try to resize a vector to it.
  std::string bytes;
  bytes.append("\x03\x00\x00\x00rec", 7);  // function name
  bytes.append("\xff\xff\xff\x7f", 4);     // may_write_scalars count
  EXPECT_FALSE(deserialize_summary(bytes).has_value());
}

// --------------------------------------------------------------------------
// Store files: round-trip and corruption
// --------------------------------------------------------------------------

// Builds a store file at `path` with `count` distinct records.
void build_store(const std::string& path, size_t count, size_t cap = 4096) {
  ipa::CrossProgramCache cache;
  for (size_t i = 0; i < count; ++i) {
    ipa::PortableSummary s = rich_summary();
    s.function = "kernel_" + std::to_string(i);
    cache.insert(ipa::CacheKey{i + 1, i + 101}, std::move(s));
  }
  SummaryStore store(path, StoreOptions{cap});
  ASSERT_TRUE(store.open());
  store.absorb(cache);
  ASSERT_TRUE(store.flush());
}

TEST(SummaryStore, SaveReopenRoundTripsByteIdentically) {
  const std::string path = temp_path("roundtrip.bin");
  std::remove(path.c_str());
  build_store(path, 5);
  const std::string first = read_file(path);
  ASSERT_FALSE(first.empty());

  SummaryStore reopened(path);
  ASSERT_TRUE(reopened.open());
  EXPECT_EQ(reopened.size(), 5u);
  EXPECT_EQ(reopened.stats().loaded, 5u);
  EXPECT_EQ(reopened.stats().rejected, 0u);
  ASSERT_TRUE(reopened.flush());
  const std::string second = read_file(path);

  // Only the 8-byte next-generation counter in the header may differ; every
  // record byte must survive the reopen+flush round trip untouched.
  ASSERT_EQ(first.size(), second.size());
  EXPECT_EQ(first.substr(0, 8), second.substr(0, 8));    // magic + version
  EXPECT_EQ(first.substr(16), second.substr(16));        // all records
  std::remove(path.c_str());
}

TEST(SummaryStore, TruncatedFileKeepsTheGoodPrefix) {
  const std::string path = temp_path("truncated.bin");
  std::remove(path.c_str());
  build_store(path, 4);
  std::string bytes = read_file(path);
  write_file(path, bytes.substr(0, bytes.size() - 25));  // tears the last record

  SummaryStore store(path);
  EXPECT_TRUE(store.open());  // not a wholesale reject
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.stats().loaded, 3u);
  EXPECT_EQ(store.stats().rejected, 1u);
  std::remove(path.c_str());
}

TEST(SummaryStore, ChecksumMismatchDropsOnlyThatRecord) {
  const std::string path = temp_path("bitflip.bin");
  std::remove(path.c_str());
  build_store(path, 4);
  std::string bytes = read_file(path);
  // Header is 16 bytes; the first record's payload starts after its 44-byte
  // record header. Flip a byte well inside the payload.
  bytes[16 + 44 + 10] = static_cast<char>(bytes[16 + 44 + 10] ^ 0x5a);
  write_file(path, bytes);

  SummaryStore store(path);
  EXPECT_TRUE(store.open());
  EXPECT_EQ(store.size(), 3u);  // the other three records survive
  EXPECT_EQ(store.stats().rejected, 1u);
  std::remove(path.c_str());
}

TEST(SummaryStore, VersionMismatchQuarantinesTheWholeFile) {
  const std::string path = temp_path("badversion.bin");
  std::remove(path.c_str());
  std::remove((path + ".corrupt").c_str());
  build_store(path, 3);
  std::string bytes = read_file(path);
  bytes[4] = 99;  // version field
  write_file(path, bytes);

  SummaryStore store(path);
  EXPECT_FALSE(store.open());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.stats().rejected, 1u);
  // Quarantined, not deleted: the bad bytes moved to .corrupt and the
  // original path is free for the next flush.
  EXPECT_TRUE(std::ifstream(path + ".corrupt").good());
  EXPECT_FALSE(std::ifstream(path).good());
  ASSERT_TRUE(store.flush());
  EXPECT_TRUE(std::ifstream(path).good());
  std::remove(path.c_str());
  std::remove((path + ".corrupt").c_str());
}

TEST(SummaryStore, BadMagicQuarantinesTheWholeFile) {
  const std::string path = temp_path("badmagic.bin");
  std::remove(path.c_str());
  std::remove((path + ".corrupt").c_str());
  write_file(path, "definitely not a summary store");

  SummaryStore store(path);
  EXPECT_FALSE(store.open());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(std::ifstream(path + ".corrupt").good());
  std::remove((path + ".corrupt").c_str());
}

TEST(SummaryStore, MissingFileOpensEmpty) {
  const std::string path = temp_path("missing.bin");
  std::remove(path.c_str());
  SummaryStore store(path);
  EXPECT_TRUE(store.open());
  EXPECT_EQ(store.size(), 0u);
}

// --------------------------------------------------------------------------
// Eviction
// --------------------------------------------------------------------------

TEST(SummaryStore, EvictionKeepsWarmRecordsUnderTheCap) {
  const std::string path = temp_path("evict.bin");
  std::remove(path.c_str());
  build_store(path, 6, /*cap=*/4096);

  // Reopen with a tight cap; HIT two records so their generations are
  // bumped past the cold ones, then flush: the two warm keys must survive.
  SummaryStore store(path, StoreOptions{3});
  ASSERT_TRUE(store.open());
  ipa::CrossProgramCache cache;
  EXPECT_EQ(store.preload(cache), 6u);
  EXPECT_TRUE(cache.find(ipa::CacheKey{1, 101}) != nullptr);
  EXPECT_TRUE(cache.find(ipa::CacheKey{2, 102}) != nullptr);
  store.absorb(cache);
  ASSERT_TRUE(store.flush());
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.stats().evicted, 3u);
  EXPECT_EQ(store.stats().flushed, 3u);

  SummaryStore reopened(path);
  ASSERT_TRUE(reopened.open());
  ipa::CrossProgramCache warm;
  reopened.preload(warm);
  EXPECT_TRUE(warm.find(ipa::CacheKey{1, 101}) != nullptr);
  EXPECT_TRUE(warm.find(ipa::CacheKey{2, 102}) != nullptr);
  std::remove(path.c_str());
}

// --------------------------------------------------------------------------
// Concurrency: first-writer-wins under absorb/flush races
// --------------------------------------------------------------------------

TEST(SummaryStore, ConcurrentAbsorbsAreFirstWriterWins) {
  const std::string path = temp_path("concurrent.bin");
  std::remove(path.c_str());

  // Seed the store with the canonical payloads first.
  SummaryStore store(path);
  ASSERT_TRUE(store.open());
  constexpr size_t kKeys = 32;
  {
    ipa::CrossProgramCache seed;
    for (size_t i = 0; i < kKeys; ++i) {
      ipa::PortableSummary s = rich_summary();
      s.function = "canonical_" + std::to_string(i);
      seed.insert(ipa::CacheKey{i + 1, 7}, std::move(s));
    }
    store.absorb(seed);
  }

  // Racing absorbs carry DIFFERENT payloads for the same keys plus some new
  // keys of their own; flushes race too. The seeded payloads must win.
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&store, t] {
      for (int round = 0; round < 8; ++round) {
        ipa::CrossProgramCache cache;
        for (size_t i = 0; i < kKeys; ++i) {
          ipa::PortableSummary s;
          s.function = "imposter_t" + std::to_string(t);
          cache.insert(ipa::CacheKey{i + 1, 7}, std::move(s));
        }
        ipa::PortableSummary extra;
        extra.function = "extra_t" + std::to_string(t);
        cache.insert(ipa::CacheKey{1000 + t, 7}, std::move(extra));
        store.absorb(cache);
        store.flush();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_TRUE(store.flush());

  SummaryStore reopened(path);
  ASSERT_TRUE(reopened.open());
  EXPECT_EQ(reopened.size(), kKeys + 4);
  ipa::CrossProgramCache check;
  reopened.preload(check);
  for (size_t i = 0; i < kKeys; ++i) {
    auto summary = check.find(ipa::CacheKey{i + 1, 7});
    ASSERT_TRUE(summary != nullptr);
    EXPECT_EQ(summary->function, "canonical_" + std::to_string(i));
  }
  std::remove(path.c_str());
}

// --------------------------------------------------------------------------
// Crash-safe journal (write-ahead log)
// --------------------------------------------------------------------------

StoreOptions journal_options(size_t cap = 4096, size_t checkpoint_bytes = 1u << 20) {
  StoreOptions options;
  options.max_entries = cap;
  options.journal = true;
  options.journal_checkpoint_bytes = checkpoint_bytes;
  return options;
}

// Absorbs `count` distinct records into a journal-mode store WITHOUT a full
// flush: durability comes from the WAL sidecar alone.
void build_journal(const std::string& path, size_t count) {
  ipa::CrossProgramCache cache;
  for (size_t i = 0; i < count; ++i) {
    ipa::PortableSummary s = rich_summary();
    s.function = "kernel_" + std::to_string(i);
    cache.insert(ipa::CacheKey{i + 1, i + 101}, std::move(s));
  }
  SummaryStore store(path, journal_options());
  ASSERT_TRUE(store.open());
  store.absorb(cache);
  ASSERT_TRUE(store.commit());  // journal small: no base-file rewrite
  EXPECT_EQ(store.stats().journal_appended, count);
}

TEST(SummaryStoreJournal, ReplayRestoresRecordsNeverFlushed) {
  const std::string path = temp_path("journal.bin");
  std::remove(path.c_str());
  std::remove((path + ".journal").c_str());
  build_journal(path, 5);
  // commit() never rewrote the base file — the journal is the only bytes.
  EXPECT_FALSE(std::ifstream(path).good());
  ASSERT_TRUE(std::ifstream(path + ".journal").good());

  SummaryStore reopened(path, journal_options());
  ASSERT_TRUE(reopened.open());
  EXPECT_EQ(reopened.size(), 5u);
  EXPECT_EQ(reopened.stats().journal_replayed, 5u);
  EXPECT_EQ(reopened.stats().rejected, 0u);
  ipa::CrossProgramCache check;
  EXPECT_EQ(reopened.preload(check), 5u);
  auto summary = check.find(ipa::CacheKey{1, 101});
  ASSERT_TRUE(summary != nullptr);
  EXPECT_EQ(summary->function, "kernel_0");
  std::remove(path.c_str());
  std::remove((path + ".journal").c_str());
}

TEST(SummaryStoreJournal, TornTailKeepsGoodPrefixAndTruncatesFile) {
  const std::string path = temp_path("journal_torn.bin");
  std::remove(path.c_str());
  std::remove((path + ".journal").c_str());
  build_journal(path, 4);
  std::string bytes = read_file(path + ".journal");
  // A crash mid-append leaves a torn final record.
  write_file(path + ".journal", bytes.substr(0, bytes.size() - 25));

  SummaryStore store(path, journal_options());
  ASSERT_TRUE(store.open());
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.stats().journal_replayed, 3u);
  EXPECT_EQ(store.stats().rejected, 1u);
  // The torn tail was physically removed so later appends never follow it.
  const std::string after = read_file(path + ".journal");
  EXPECT_LT(after.size(), bytes.size() - 25);
  EXPECT_EQ(after, bytes.substr(0, after.size()));

  // The survivor store keeps absorbing and replaying cleanly.
  SummaryStore again(path, journal_options());
  ASSERT_TRUE(again.open());
  EXPECT_EQ(again.size(), 3u);
  EXPECT_EQ(again.stats().rejected, 0u);
  std::remove(path.c_str());
  std::remove((path + ".journal").c_str());
}

TEST(SummaryStoreJournal, CorruptRecordStopsReplayAtThePrefix) {
  const std::string path = temp_path("journal_bitflip.bin");
  std::remove(path.c_str());
  std::remove((path + ".journal").c_str());
  build_journal(path, 3);
  std::string bytes = read_file(path + ".journal");
  // Flip a byte in the middle of the file: the checksum of that record
  // fails, and — unlike the base file's length-prefixed framing — nothing
  // after an untrusted journal record can be trusted either.
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x5a);
  write_file(path + ".journal", bytes);

  SummaryStore store(path, journal_options());
  ASSERT_TRUE(store.open());
  EXPECT_LT(store.size(), 3u);
  EXPECT_EQ(store.stats().rejected, 1u);
  EXPECT_EQ(store.stats().journal_replayed, store.size());
  std::remove(path.c_str());
  std::remove((path + ".journal").c_str());
}

TEST(SummaryStoreJournal, FlushCompactsJournalIntoBaseFile) {
  const std::string path = temp_path("journal_compact.bin");
  std::remove(path.c_str());
  std::remove((path + ".journal").c_str());
  build_journal(path, 4);

  SummaryStore store(path, journal_options());
  ASSERT_TRUE(store.open());
  EXPECT_EQ(store.stats().journal_replayed, 4u);
  ASSERT_TRUE(store.flush());
  // The checkpoint moved every journaled record into the base file and
  // emptied the journal.
  EXPECT_EQ(read_file(path + ".journal").size(), 0u);
  ASSERT_TRUE(std::ifstream(path).good());

  SummaryStore reopened(path, journal_options());
  ASSERT_TRUE(reopened.open());
  EXPECT_EQ(reopened.size(), 4u);
  EXPECT_EQ(reopened.stats().loaded, 4u);
  EXPECT_EQ(reopened.stats().journal_replayed, 0u);
  std::remove(path.c_str());
  std::remove((path + ".journal").c_str());
}

TEST(SummaryStoreJournal, CommitCheckpointsWhenTheJournalGrowsPastTheCap) {
  const std::string path = temp_path("journal_checkpoint.bin");
  std::remove(path.c_str());
  std::remove((path + ".journal").c_str());
  // A 1-byte checkpoint threshold: the very first commit must checkpoint.
  ipa::CrossProgramCache cache;
  ipa::PortableSummary s = rich_summary();
  cache.insert(ipa::CacheKey{1, 101}, std::move(s));
  SummaryStore store(path, journal_options(4096, 1));
  ASSERT_TRUE(store.open());
  store.absorb(cache);
  ASSERT_TRUE(store.commit());
  EXPECT_TRUE(std::ifstream(path).good());  // base file written
  EXPECT_EQ(read_file(path + ".journal").size(), 0u);
  std::remove(path.c_str());
  std::remove((path + ".journal").c_str());
}

// (key, generation) of every record of a base file, in file order (the
// layout summary_store.h documents).
std::vector<std::pair<ipa::CacheKey, uint64_t>> record_generations(const std::string& path) {
  const std::string bytes = read_file(path);
  auto u64 = [&bytes](size_t at) {
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(bytes.at(at + i));
    return v;
  };
  auto u32 = [&bytes](size_t at) {
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(bytes.at(at + i));
    return v;
  };
  std::vector<std::pair<ipa::CacheKey, uint64_t>> out;
  size_t pos = 4 + 4 + 8;  // magic | version | next_generation
  while (pos < bytes.size()) {
    out.push_back({ipa::CacheKey{u64(pos), u64(pos + 8)}, u64(pos + 16)});
    pos += 8 + 8 + 8 + 4 + 8 + u32(pos + 24);
  }
  return out;
}

TEST(SummaryStoreJournal, RepeatedHitsJournalOneTouchPerGeneration) {
  const std::string path = temp_path("journal_touch.bin");
  std::remove(path.c_str());
  std::remove((path + ".journal").c_str());
  build_store(path, 4);  // generation 1; the next open runs generation 2

  // A long-lived cache keeps hitting two records between absorbs, as a
  // server session does between requests.
  const ipa::CacheKey warm_a{1, 101}, warm_b{2, 102}, fresh{9, 109};
  {
    SummaryStore store(path, journal_options());
    ASSERT_TRUE(store.open());
    ipa::CrossProgramCache cache;
    ASSERT_EQ(store.preload(cache), 4u);
    for (int round = 0; round < 16; ++round) {
      for (int hit = 0; hit < 3; ++hit) {
        ASSERT_NE(cache.find(warm_a), nullptr);
        ASSERT_NE(cache.find(warm_b), nullptr);
      }
      if (round == 0) cache.insert(fresh, rich_summary());
      store.absorb(cache);
      ASSERT_TRUE(store.commit());
      EXPECT_EQ(store.stats().journal_appended, 3u)
          << "round " << round << ": one Touch per hit record and one Add, then nothing";
    }
    EXPECT_EQ(store.stats().absorbed, 1u);
  }

  // Replay restores the generations the live store held: the hit records
  // and the new one at generation 2, the untouched ones still at 1.
  const std::vector<std::pair<ipa::CacheKey, uint64_t>> expected = {
      {warm_a, 2}, {warm_b, 2}, {ipa::CacheKey{3, 103}, 1}, {ipa::CacheKey{4, 104}, 1},
      {fresh, 2}};
  {
    SummaryStore reopened(path, journal_options());
    ASSERT_TRUE(reopened.open());
    EXPECT_EQ(reopened.size(), 5u);
    EXPECT_EQ(reopened.stats().journal_replayed, 1u);
    ASSERT_TRUE(reopened.flush());
  }
  EXPECT_EQ(record_generations(path), expected);
  // A second reopen reads the same generations back from the base file.
  {
    SummaryStore again(path, journal_options());
    ASSERT_TRUE(again.open());
    ASSERT_TRUE(again.flush());
  }
  EXPECT_EQ(record_generations(path), expected);
  std::remove(path.c_str());
  std::remove((path + ".journal").c_str());
}

TEST(SummaryStoreJournal, SimulatedAppendFailureFallsBackToFullFlush) {
  if (!support::faultpoint::compiled_in()) GTEST_SKIP() << "faultpoints off";
  const std::string path = temp_path("journal_degraded.bin");
  std::remove(path.c_str());
  std::remove((path + ".journal").c_str());
  support::faultpoint::disarm_all();
  support::faultpoint::arm("store.journal.pre_append", "fail");

  ipa::CrossProgramCache cache;
  ipa::PortableSummary s = rich_summary();
  cache.insert(ipa::CacheKey{1, 101}, std::move(s));
  SummaryStore store(path, journal_options());
  ASSERT_TRUE(store.open());
  store.absorb(cache);  // WAL append "fails"; degraded mode kicks in
  support::faultpoint::disarm_all();
  ASSERT_TRUE(store.commit());  // must full-flush despite the tiny journal
  EXPECT_TRUE(std::ifstream(path).good());

  SummaryStore reopened(path, journal_options());
  ASSERT_TRUE(reopened.open());
  EXPECT_EQ(reopened.size(), 1u);  // nothing lost
  std::remove(path.c_str());
  std::remove((path + ".journal").c_str());
}

// --------------------------------------------------------------------------
// Warm-start batch runs
// --------------------------------------------------------------------------

// Two programs sharing a byte-identical helper AND a recursive helper: the
// store must cover both the analyzable and the SCC (recursive) summaries.
std::vector<driver::ProgramInput> batch_inputs() {
  const char* kProgramA = R"(
    int n;
    int acc;
    int a[100];
    int idx[100];
    int clamp(int v) {
      if (v < 0) { v = 0; }
      return v;
    }
    int rec(int k) {
      if (k > 0) { acc = acc + rec(k - 1); }
      return acc;
    }
    void main_loop() {
      acc = rec(n);
      for (int i = 0; i < n; i++) {
        a[idx[i]] = clamp(i);
      }
    }
  )";
  const char* kProgramB = R"(
    int n;
    int acc;
    int b[100];
    int clamp(int v) {
      if (v < 0) { v = 0; }
      return v;
    }
    int rec(int k) {
      if (k > 0) { acc = acc + rec(k - 1); }
      return acc;
    }
    void other() {
      acc = rec(n);
      for (int i = 0; i < n; i++) {
        b[i] = clamp(i);
      }
    }
  )";
  std::vector<driver::ProgramInput> inputs;
  inputs.push_back(driver::ProgramInput{"prog_a", kProgramA, {{"n", 1}}});
  inputs.push_back(driver::ProgramInput{"prog_b", kProgramB, {{"n", 1}}});
  return inputs;
}

// Zeroes every "total_ms" in the report tree — wall-clock is the one field
// legitimately different between byte-identical runs.
void canonicalize(support::json::Value& value) {
  if (value.is_object()) {
    for (auto& [key, child] : value.as_object()) {
      if (key == "total_ms") {
        child = support::json::Value(int64_t{0});
      } else {
        canonicalize(child);
      }
    }
  } else if (value.is_array()) {
    for (auto& child : value.as_array()) canonicalize(child);
  }
}

std::string canonical_report(const driver::BatchReport& report, unsigned threads) {
  support::json::Value json = driver::batch_report_to_json(report, threads, true);
  canonicalize(json);
  return json.dump(2);
}

TEST(StoreBatch, WarmRunHitsTheStoreAndReportsByteIdentically) {
  const std::string path = temp_path("warm.bin");
  std::remove(path.c_str());
  auto inputs = batch_inputs();
  driver::BatchOptions options;
  options.threads = 2;

  SummaryStore cold_store(path);
  ASSERT_TRUE(cold_store.open());
  driver::BatchReport cold = driver::run_with_store(inputs, options, &cold_store);
  ASSERT_EQ(cold.stats.failed, 0);
  EXPECT_EQ(cold.stats.store_hits, 0);
  EXPECT_GT(cold.stats.store_misses, 0);
  EXPECT_GT(cold.stats.store_flushed, 0);
  // The recursive helper got a combined-SCC content key and entered the
  // store alongside the analyzable summaries.
  EXPECT_GT(cold.stats.summary_scc, 0);

  SummaryStore warm_store(path);
  ASSERT_TRUE(warm_store.open());
  EXPECT_EQ(warm_store.stats().loaded, static_cast<size_t>(cold.stats.store_flushed));
  driver::BatchReport warm = driver::run_with_store(inputs, options, &warm_store);
  EXPECT_GT(warm.stats.store_hits, 0);
  EXPECT_GT(warm.stats.store_loaded, 0);
  EXPECT_GT(warm.stats.summary_scc, 0);

  // Verdicts and aggregates are identical cold vs warm (the store fields
  // themselves necessarily differ), and two warm runs — even at different
  // thread counts — are byte-identical reports modulo wall-clock.
  ASSERT_EQ(cold.programs.size(), warm.programs.size());
  for (size_t i = 0; i < cold.programs.size(); ++i) {
    EXPECT_EQ(cold.programs[i].result.output, warm.programs[i].result.output);
  }
  EXPECT_EQ(cold.stats.parallel, warm.stats.parallel);
  EXPECT_EQ(cold.stats.property_counts, warm.stats.property_counts);

  SummaryStore warm2_store(path);
  ASSERT_TRUE(warm2_store.open());
  driver::BatchReport warm2 = driver::run_with_store(inputs, options, &warm2_store);
  EXPECT_TRUE(warm.stats == warm2.stats);
  EXPECT_EQ(canonical_report(warm, 2), canonical_report(warm2, 2));

  driver::BatchOptions serial = options;
  serial.threads = 1;
  SummaryStore warm3_store(path);
  ASSERT_TRUE(warm3_store.open());
  driver::BatchReport warm3 = driver::run_with_store(inputs, serial, &warm3_store);
  EXPECT_TRUE(warm.stats == warm3.stats);
  std::remove(path.c_str());
}

TEST(StoreBatch, SameNameDifferentBodyRecursiveHelpersDoNotCollide) {
  // Both programs define a recursive `rec`, with DIFFERENT bodies writing
  // different globals. If SCC content keys collided on the name, program B
  // would rehydrate A's summary and mis-attribute the may-write set; the
  // loop verdicts would then differ from a no-sharing run.
  const char* kProgramA = R"(
    int n;
    int acc;
    int a[100];
    int rec(int k) {
      if (k > 0) { acc = acc + rec(k - 1); }
      return acc;
    }
    void f() {
      acc = rec(n);
      for (int i = 0; i < n; i++) { a[i] = i; }
    }
  )";
  const char* kProgramB = R"(
    int n;
    int other;
    int a[100];
    int rec(int k) {
      if (k > 1) { other = other + rec(k - 2); }
      return other;
    }
    void f() {
      other = rec(n);
      for (int i = 0; i < n; i++) { a[i] = i; }
    }
  )";
  std::vector<driver::ProgramInput> inputs;
  inputs.push_back(driver::ProgramInput{"prog_a", kProgramA, {{"n", 1}}});
  inputs.push_back(driver::ProgramInput{"prog_b", kProgramB, {{"n", 1}}});

  const std::string path = temp_path("scc_collide.bin");
  std::remove(path.c_str());
  driver::BatchOptions options;
  options.threads = 1;
  SummaryStore store(path);
  ASSERT_TRUE(store.open());
  driver::BatchReport shared = driver::run_with_store(inputs, options, &store);

  SummaryStore warm(path);
  ASSERT_TRUE(warm.open());
  driver::BatchReport warm_run = driver::run_with_store(inputs, options, &warm);

  // The unshared reference: one single-input run per program, with no
  // shared cache.
  const driver::BatchAnalyzer analyzer(options);
  std::vector<driver::ProgramReport> unshared;
  uint64_t unshared_hits = 0;
  for (const driver::ProgramInput& input : inputs) {
    driver::BatchReport one = analyzer.run({input});
    unshared_hits += one.shared_cache.hits;
    unshared.push_back(std::move(one.programs.front()));
  }
  EXPECT_EQ(unshared_hits, 0u);

  ASSERT_EQ(shared.programs.size(), unshared.size());
  for (size_t i = 0; i < shared.programs.size(); ++i) {
    EXPECT_EQ(shared.programs[i].result.output, unshared[i].result.output);
    EXPECT_EQ(warm_run.programs[i].result.output, unshared[i].result.output);
  }
  const int unshared_parallel = driver::BatchAnalyzer::aggregate(unshared).parallel;
  EXPECT_EQ(shared.stats.parallel, unshared_parallel);
  EXPECT_EQ(warm_run.stats.parallel, unshared_parallel);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sspar::store
