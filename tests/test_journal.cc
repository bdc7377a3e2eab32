// Tests for the crash-recovery journal (core/journal.h): record format,
// the bounded file, the byte-level torture the header promises —
// truncation and corruption at EVERY offset must either restore an intact
// snapshot or fall back cleanly, never crash, never yield a half-written
// image — the writer's torn-tail rule (the next write that lands is the one
// restore returns), and determinism: a manager restored from the journal
// elects exactly like one that never crashed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/cpu_manager.h"
#include "core/journal.h"
#include "faults/sysfail.h"

namespace bbsched::core {
namespace {

std::string tmp_journal_path(const char* tag) {
  return "/tmp/bbsched-test-journal-" + std::string(tag) + "-" +
         std::to_string(::getpid());
}

/// A snapshot with every field off its default, exact in binary floating
/// point so restore-side window-sum recomputation cannot introduce noise.
/// The salt is zero-padded so every snapshot encodes to the same length
/// (CompactionBoundsTheFile compares file sizes across appends).
ManagerSnapshot sample_snapshot(int salt = 0) {
  ManagerSnapshot snap;
  snap.quantum_index = 41 + static_cast<std::uint64_t>(salt);
  snap.dead_feed_quanta = 1 + salt;
  snap.degraded = (salt % 2) == 1;
  for (int i = 0; i < 3; ++i) {
    FeedSnapshot f;
    f.name = "feed" + std::to_string(i) + "-" + (salt < 10 ? "0" : "") +
             std::to_string(salt);
    f.nthreads = 1 + i;
    f.miss_streak = i;
    f.has_decayed_estimate = i == 1;
    f.decayed_estimate = i == 1 ? 3.5 : 0.0;
    f.quarantined = i == 2;
    f.tracker.latest = 0.25 * (i + 1) + salt;
    f.tracker.has_latest = true;
    f.tracker.window = {1.0 + salt, 2.5, 0.75, 4.0};
    f.tracker.ewma = 1.5 + salt;
    f.tracker.ewma_seeded = true;
    snap.feeds.push_back(f);
  }
  return snap;
}

bool feeds_equal(const FeedSnapshot& a, const FeedSnapshot& b) {
  return a.name == b.name && a.nthreads == b.nthreads &&
         a.miss_streak == b.miss_streak &&
         a.has_decayed_estimate == b.has_decayed_estimate &&
         a.decayed_estimate == b.decayed_estimate &&
         a.quarantined == b.quarantined &&
         a.tracker.latest == b.tracker.latest &&
         a.tracker.has_latest == b.tracker.has_latest &&
         a.tracker.window == b.tracker.window &&
         a.tracker.ewma == b.tracker.ewma &&
         a.tracker.ewma_seeded == b.tracker.ewma_seeded;
}

bool snaps_equal(const ManagerSnapshot& a, const ManagerSnapshot& b) {
  if (a.quantum_index != b.quantum_index ||
      a.dead_feed_quanta != b.dead_feed_quanta || a.degraded != b.degraded ||
      a.feeds.size() != b.feeds.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.feeds.size(); ++i) {
    if (!feeds_equal(a.feeds[i], b.feeds[i])) return false;
  }
  return true;
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const char* data, std::size_t len) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data, static_cast<std::streamsize>(len));
}

struct JournalFile {
  std::string path;
  explicit JournalFile(const char* tag) : path(tmp_journal_path(tag)) {
    ::unlink(path.c_str());
  }
  ~JournalFile() { ::unlink(path.c_str()); }
};

TEST(Journal, EncodeDecodeRoundTrip) {
  const ManagerSnapshot snap = sample_snapshot();
  std::vector<char> payload;
  encode_snapshot(snap, payload);
  ASSERT_FALSE(payload.empty());

  ManagerSnapshot got;
  ASSERT_TRUE(decode_snapshot(payload.data(), payload.size(), got));
  EXPECT_TRUE(snaps_equal(snap, got));
}

TEST(Journal, DecodeRejectsShortBuffers) {
  const ManagerSnapshot snap = sample_snapshot();
  std::vector<char> payload;
  encode_snapshot(snap, payload);
  ManagerSnapshot got;
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(decode_snapshot(payload.data(), len, got))
        << "decoder accepted a " << len << "-byte prefix";
  }
}

TEST(Journal, LoadPicksNewestRecord) {
  JournalFile j("newest");
  JournalWriter w(j.path);
  ASSERT_TRUE(w.append(sample_snapshot(0)));
  ASSERT_TRUE(w.append(sample_snapshot(1)));
  ASSERT_TRUE(w.append(sample_snapshot(2)));

  ManagerSnapshot got;
  ASSERT_TRUE(load_latest_snapshot(j.path, got));
  EXPECT_TRUE(snaps_equal(got, sample_snapshot(2)));
}

TEST(Journal, CompactionBoundsTheFile) {
  JournalFile j("compact");
  JournalWriter w(j.path);
  std::size_t size_at_cap = 0;
  constexpr int kWrites = 2 * kJournalMaxRecords + 8;
  for (int i = 0; i < kWrites; ++i) {
    ASSERT_TRUE(w.append(sample_snapshot(i % 10)));
    const std::size_t size = read_file(j.path).size();
    if (i == kJournalMaxRecords - 1) size_at_cap = size;
    if (i >= kJournalMaxRecords) {
      EXPECT_LE(size, size_at_cap) << "append " << i << " outgrew the cap";
    }
  }
  ManagerSnapshot got;
  ASSERT_TRUE(load_latest_snapshot(j.path, got));
  EXPECT_TRUE(snaps_equal(got, sample_snapshot((kWrites - 1) % 10)));
}

TEST(Journal, MissingOrEmptyFileColdStarts) {
  ManagerSnapshot got;
  EXPECT_FALSE(load_latest_snapshot("/tmp/bbsched-no-such-journal", got));

  JournalFile j("empty");
  write_file(j.path, nullptr, 0);
  EXPECT_FALSE(load_latest_snapshot(j.path, got));
}

// The header's core promise: truncate the journal at EVERY byte offset; the
// load either returns one of the intact snapshots that were written or
// reports cold-start — it never crashes and never fabricates state.
TEST(Journal, TruncationTortureAtEveryOffset) {
  JournalFile j("trunc");
  JournalWriter w(j.path);
  const ManagerSnapshot first = sample_snapshot(0);
  const ManagerSnapshot second = sample_snapshot(1);
  ASSERT_TRUE(w.append(first));
  ASSERT_TRUE(w.append(second));
  const std::vector<char> bytes = read_file(j.path);
  ASSERT_GT(bytes.size(), 32u);

  JournalFile torn("trunc-torn");
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    write_file(torn.path, bytes.data(), len);
    ManagerSnapshot got;
    if (load_latest_snapshot(torn.path, got)) {
      EXPECT_TRUE(snaps_equal(got, first) || snaps_equal(got, second))
          << "truncation at " << len << " produced a snapshot that was "
          << "never written";
    }
    // A full first record must always survive a torn second one.
    if (len >= bytes.size() / 2 + 8) {
      ManagerSnapshot survivor;
      EXPECT_TRUE(load_latest_snapshot(torn.path, survivor))
          << "truncation at " << len << " lost the intact first record";
    }
  }
}

// Flip every byte in turn: a CRC-guarded record either survives (the flip
// landed in the other record) or is skipped; the result is always one of
// the two written snapshots or a clean cold-start.
TEST(Journal, CorruptionTortureAtEveryOffset) {
  JournalFile j("corrupt");
  JournalWriter w(j.path);
  const ManagerSnapshot first = sample_snapshot(0);
  const ManagerSnapshot second = sample_snapshot(1);
  ASSERT_TRUE(w.append(first));
  ASSERT_TRUE(w.append(second));
  std::vector<char> bytes = read_file(j.path);

  JournalFile flipped("corrupt-flipped");
  for (std::size_t off = 0; off < bytes.size(); ++off) {
    std::vector<char> mutated = bytes;
    mutated[off] = static_cast<char>(mutated[off] ^ 0x5a);
    write_file(flipped.path, mutated.data(), mutated.size());
    ManagerSnapshot got;
    if (load_latest_snapshot(flipped.path, got)) {
      EXPECT_TRUE(snaps_equal(got, first) || snaps_equal(got, second))
          << "byte flip at " << off << " produced a snapshot that was "
          << "never written";
    }
  }
}

// ---- injected write failures: ENOSPC and short writes (sysfail) ----

namespace sf = bbsched::faults;

/// What a restore of `path` yields, printable: the restored snapshot's
/// quantum_index, or "cold start".
std::string restored_quantum(const std::string& path) {
  ManagerSnapshot got;
  return load_latest_snapshot(path, got) ? std::to_string(got.quantum_index)
                                         : std::string("cold start");
}

/// ENOSPC with a torn prefix of every length at the second write, and its
/// retry as a replacement failing too: the injected fwrite lands `cut`
/// bytes of record 2 on disk and then fails. Restore must return record 1
/// bit-identically — the torn prefix is rejected by length/CRC — append
/// must report the failure, and no temp file may be left behind.
TEST(Journal, EnospcShortWriteAtEveryRecordOffset) {
  const ManagerSnapshot first = sample_snapshot(0);
  const ManagerSnapshot second = sample_snapshot(1);

  // Record length, measured from an uninjected single-record file.
  std::size_t record_len = 0;
  {
    JournalFile probe("enospc-probe");
    JournalWriter w(probe.path);
    ASSERT_TRUE(w.append(first));
    record_len = read_file(probe.path).size();
  }
  ASSERT_GT(record_len, 16u);

  for (std::size_t cut = 0; cut < record_len; ++cut) {
    JournalFile j("enospc");
    sf::SysFailConfig cfg;
    cfg.enabled = true;
    // fwrite call 0 = first write (clean); call 1 = the torn append;
    // call 2 = its retry as a replacement, failing outright.
    cfg.triggers.push_back({sf::SysOp::kJournalWrite, 1, ENOSPC, cut, 0});
    cfg.triggers.push_back({sf::SysOp::kJournalWrite, 2, ENOSPC, 0, 0});
    sf::ScopedSysFail scoped(cfg);

    JournalWriter w(j.path);
    ASSERT_TRUE(w.append(first)) << "cut " << cut;
    EXPECT_FALSE(w.append(second))
        << "cut " << cut << ": torn append reported success";
    EXPECT_NE(::access((j.path + ".tmp").c_str(), F_OK), 0)
        << "cut " << cut << ": torn temp file left behind";

    ManagerSnapshot got;
    ASSERT_TRUE(load_latest_snapshot(j.path, got))
        << "cut " << cut << ": intact first record lost";
    EXPECT_TRUE(snaps_equal(got, first))
        << "cut " << cut << ": restore returned a record that was never "
        << "fully written";
  }
}

// A torn append whose replacement also fails leaves a torn prefix at the
// end of the file. The next write that lands must be the one restore
// returns: a write appended behind that prefix would stay hidden, since
// the restore scan stops at the first torn record.
TEST(Journal, WriteAfterFailedReplacementIsRestored) {
  JournalFile j("torn-retry");
  sf::SysFailConfig cfg;
  cfg.enabled = true;
  cfg.triggers.push_back({sf::SysOp::kJournalWrite, 1, ENOSPC, 7, 0});
  cfg.triggers.push_back({sf::SysOp::kJournalWrite, 2, ENOSPC, 0, 0});
  sf::ScopedSysFail scoped(cfg);

  JournalWriter w(j.path);
  ASSERT_TRUE(w.append(sample_snapshot(0)));
  ASSERT_FALSE(w.append(sample_snapshot(1)));
  int salt = 2;
  while (!w.append(sample_snapshot(salt))) {
    ASSERT_LT(++salt, 5) << "no write landed after the injected failures";
  }
  ManagerSnapshot got;
  ASSERT_TRUE(load_latest_snapshot(j.path, got));
  EXPECT_TRUE(snaps_equal(got, sample_snapshot(salt)))
      << "restore returned quantum " << got.quantum_index
      << ", the last write that landed was quantum "
      << sample_snapshot(salt).quantum_index;
  std::vector<char> payload;
  encode_snapshot(sample_snapshot(salt), payload);
  EXPECT_EQ(read_file(j.path).size(), 16 + payload.size())
      << "the write after a failure must replace the file with one record";
}

// A restarted manager builds a fresh writer on the journal its predecessor
// left, which may end in a torn record (the predecessor died mid-append).
// The fresh writer's first write must be the one restore returns.
TEST(Journal, FreshWriterReplacesATornTail) {
  JournalFile j("fresh-torn");
  {
    JournalWriter w(j.path);
    ASSERT_TRUE(w.append(sample_snapshot(0)));
    ASSERT_TRUE(w.append(sample_snapshot(1)));
  }
  std::vector<char> bytes = read_file(j.path);
  bytes.resize(bytes.size() - 9);  // the dead manager's last append, torn
  write_file(j.path, bytes.data(), bytes.size());
  EXPECT_EQ(restored_quantum(j.path), "41");

  JournalWriter w(j.path);
  ASSERT_TRUE(w.append(sample_snapshot(2)));
  ASSERT_TRUE(w.append(sample_snapshot(3)));
  EXPECT_EQ(restored_quantum(j.path), "44")
      << "a fresh writer's records went behind the torn tail";
}

// Probabilistic soak: many seeds of ENOSPC/short-write noise over more
// writes than kJournalMaxRecords. Whatever the injector does, restore
// returns exactly the last write that landed — never a half record, never
// an older record hidden behind a torn tail — or cold-starts before any
// write landed.
TEST(Journal, EnospcSoakRestoresTheLastWriteThatLanded) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    JournalFile j("enospc-soak");
    sf::SysFailConfig cfg;
    cfg.enabled = true;
    cfg.seed = seed;
    cfg.journal_fail_prob = 0.4;
    sf::ScopedSysFail scoped(cfg);
    JournalWriter w(j.path);
    std::string landed = "cold start";
    for (int i = 0; i < kJournalMaxRecords + 16; ++i) {
      ManagerSnapshot snap = sample_snapshot(i % 10);
      snap.quantum_index = static_cast<std::uint64_t>(i);
      if (w.append(snap)) landed = std::to_string(i);
      ASSERT_EQ(restored_quantum(j.path), landed)
          << "seed " << seed << ", write " << i;
    }
  }
}

// ---- determinism: restore must not perturb elections ----

ManagerConfig det_cfg() {
  ManagerConfig c;
  c.policy = PolicyKind::kQuantaWindow;
  c.quantum_us = 200'000;
  c.window_len = 3;
  return c;
}

/// Samples the running apps with exact per-name rates and ends the quantum.
const ElectionResult& drive_quantum(CpuManager& mgr, std::uint64_t& now,
                                    std::uint64_t quantum_us) {
  static const std::map<std::string, double> kRates = {
      {"a", 1.0}, {"b", 2.0}, {"c", 4.0}, {"d", 8.0}};
  for (int id : mgr.running()) {
    const double rate = kRates.at(mgr.app(id).name);
    mgr.record_sample(id, rate * static_cast<double>(quantum_us), now);
  }
  now += quantum_us;
  return mgr.schedule_quantum(2, now);
}

TEST(Journal, RestoredManagerElectsIdenticallyToUncrashed) {
  const ManagerConfig c = det_cfg();
  JournalFile j("determinism");

  // Reference run: 12 quanta, snapshot taken (through the full journal
  // encode → file → decode path) right after election 6.
  CpuManager reference(c);
  for (const char* name : {"a", "b", "c", "d"}) reference.connect(name, 1);
  std::uint64_t now = 0;
  std::vector<std::vector<int>> elections;
  std::vector<int> running_at_snapshot;
  for (int q = 0; q < 12; ++q) {
    elections.push_back(drive_quantum(reference, now, c.quantum_us).elected);
    if (q == 5) {
      ManagerSnapshot snap;
      reference.snapshot(snap);
      JournalWriter w(j.path);
      ASSERT_TRUE(w.append(snap));
      running_at_snapshot = reference.running();
    }
  }

  // Crashed-and-restored run: restore the journal and reattach every app.
  // The journaled snapshot carries the election rotation (feeds are emitted
  // pre-rotated) AND the crash-time gang (running_tail), so the revived
  // manager re-enters that gang into its running set and quantum 7 folds
  // the gang's re-delivered samples exactly like the uncrashed reference.
  ManagerSnapshot restored;
  ASSERT_TRUE(load_latest_snapshot(j.path, restored));
  EXPECT_EQ(restored.running_tail, 2);
  CpuManager revived(c);
  ASSERT_EQ(revived.restore(restored), 4);
  for (const char* name : {"a", "b", "c", "d"}) revived.connect(name, 1);
  EXPECT_EQ(revived.pending_restores(), 0u);
  EXPECT_EQ(revived.quantum_index(), 6u);
  EXPECT_EQ(revived.running(), running_at_snapshot);

  std::uint64_t now2 = now - 6 * c.quantum_us;
  for (int q = 6; q < 12; ++q) {
    EXPECT_EQ(drive_quantum(revived, now2, c.quantum_us).elected,
              elections[static_cast<std::size_t>(q)])
        << "election " << q << " diverged after restore";
  }
}

// ---- buffer reuse: a steady manager journals without allocating ----

/// The record framing of journal.h, built independently of JournalWriter:
/// [magic][version][payload_len][crc32(payload)] then the payload.
std::vector<char> framed_record(const std::vector<char>& payload) {
  const std::uint32_t header[4] = {
      kJournalMagic, kJournalVersion,
      static_cast<std::uint32_t>(payload.size()),
      crc32(payload.data(), payload.size())};
  const auto* h = reinterpret_cast<const char*>(header);
  std::vector<char> out(h, h + sizeof header);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

// The server reuses one ManagerSnapshot (CpuManager::snapshot overwrites
// its feeds in place) and JournalWriter reuses its record buffer. Feeds
// join and leave and names cross the short-string boundary both ways, so
// slots are overwritten by longer and shorter names, fuller and emptier
// windows, and the feed list shrinks and grows. Every journaled record
// must still equal the framing of a fresh snapshot's encode_snapshot.
TEST(Journal, ReusedSnapshotAndBuffersEncodeByteIdentically) {
  const ManagerConfig c = det_cfg();
  CpuManager mgr(c);
  JournalFile j("reuse");
  JournalWriter w(j.path);
  int writes = 0;
  ManagerSnapshot reused;
  std::map<std::string, int> ids;
  std::uint64_t now = 0;
  const std::vector<std::pair<std::string, bool>> script = {
      {"a", true},
      {"bb", true},
      {"an-application-name-longer-than-the-small-string-buffer", true},
      {"c", true},
      {"bb", false},
      {"another-rather-long-application-name", true},
      {"a", false},
      {"an-application-name-longer-than-the-small-string-buffer", false},
      {"e", true},
      {"a", true},
      {"another-rather-long-application-name", false},
      {"c", false},
  };
  for (std::size_t step = 0; step < script.size(); ++step) {
    const auto& [name, join] = script[step];
    if (join) {
      ids[name] = mgr.connect(name, 1 + static_cast<int>(step % 3));
    } else {
      mgr.disconnect(ids.at(name));
      ids.erase(name);
    }
    for (int q = 0; q < 6; ++q) {
      SCOPED_TRACE("step " + std::to_string(step) + " quantum " +
                   std::to_string(q));
      for (int id : mgr.running()) {
        mgr.record_sample(id,
                          0.5 * (1 + id % 4) *
                              static_cast<double>(c.quantum_us),
                          now);
      }
      now += c.quantum_us;
      mgr.schedule_quantum(2, now);

      mgr.snapshot(reused);
      ASSERT_TRUE(w.append(reused));
      ++writes;
      ManagerSnapshot fresh;
      mgr.snapshot(fresh);
      std::vector<char> want;
      encode_snapshot(fresh, want);
      std::vector<char> got;
      encode_snapshot(reused, got);
      ASSERT_EQ(got, want);

      const std::vector<char> record = framed_record(want);
      const std::vector<char> file = read_file(j.path);
      ASSERT_GE(file.size(), record.size());
      EXPECT_TRUE(std::equal(record.begin(), record.end(),
                             file.end() - static_cast<std::ptrdiff_t>(
                                              record.size())))
          << "journaled record differs from a fresh encoding";
    }
  }
  EXPECT_GT(writes, kJournalMaxRecords) << "no replacement along the way";
  ManagerSnapshot restored;
  ASSERT_TRUE(load_latest_snapshot(j.path, restored));
  EXPECT_TRUE(snaps_equal(restored, reused));
}

// Restored feeds are parked, not materialized: only a connect() matching
// name AND thread count adopts one; mismatches cold-start alongside.
TEST(Journal, AdoptionRequiresMatchingIdentity) {
  const ManagerConfig c = det_cfg();
  ManagerSnapshot snap;
  {
    CpuManager mgr(c);
    const int id = mgr.connect("match", 2);
    mgr.connect("wrong-threads", 1);
    std::uint64_t now = 0;
    mgr.schedule_quantum(4, now);
    now += c.quantum_us;
    mgr.record_sample(id, 3.0 * 2 * 200'000.0, now);
    mgr.schedule_quantum(4, now);
    mgr.snapshot(snap);
  }

  CpuManager revived(c);
  EXPECT_EQ(revived.restore(snap), 2);
  const int match = revived.connect("match", 2);
  EXPECT_EQ(revived.pending_restores(), 1u);  // "match" adopted
  EXPECT_DOUBLE_EQ(revived.policy_estimate(match), 3.0);

  const int imposter = revived.connect("wrong-threads", 4);  // count differs
  EXPECT_EQ(revived.pending_restores(), 1u);  // NOT adopted: cold start
  EXPECT_DOUBLE_EQ(revived.policy_estimate(imposter),
                   c.initial_estimate_tps);
}

}  // namespace
}  // namespace bbsched::core
