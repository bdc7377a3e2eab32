// Tests for the crash-recovery journal (core/journal.h): record format,
// bounded compaction, the byte-level torture the header promises —
// truncation and corruption at EVERY offset must either restore an intact
// snapshot or fall back cleanly, never crash, never yield a half-written
// image — and determinism: a manager restored from the journal elects
// exactly like one that never crashed.
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
  EXPECT_EQ(w.records_written(), 3);

  ManagerSnapshot got;
  ASSERT_TRUE(load_latest_snapshot(j.path, got));
  EXPECT_TRUE(snaps_equal(got, sample_snapshot(2)));
}

TEST(Journal, CompactionBoundsTheFile) {
  JournalFile j("compact");
  JournalWriter w(j.path, /*max_records=*/3);
  std::size_t size_at_cap = 0;
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(w.append(sample_snapshot(i)));
    const std::size_t size = read_file(j.path).size();
    if (i == 2) size_at_cap = size;
    if (i > 2) {
      EXPECT_LE(size, size_at_cap) << "append " << i << " outgrew the cap";
    }
  }
  ManagerSnapshot got;
  ASSERT_TRUE(load_latest_snapshot(j.path, got));
  EXPECT_TRUE(snaps_equal(got, sample_snapshot(11)));
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

/// ENOSPC with a torn prefix of every length at the second append: the
/// injected fwrite lands `cut` bytes of record 2 on disk and then fails.
/// Restore must return record 1 bit-identically — the torn prefix is
/// rejected by length/CRC — and append must report the failure.
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
    // fwrite call 0 = first append (clean); call 1 = the injected tear.
    cfg.triggers.push_back(
        {sf::SysOp::kJournalWrite, 1, ENOSPC, cut, 0});
    sf::ScopedSysFail scoped(cfg);

    JournalWriter w(j.path);
    ASSERT_TRUE(w.append(first)) << "cut " << cut;
    EXPECT_FALSE(w.append(second))
        << "cut " << cut << ": torn append reported success";

    ManagerSnapshot got;
    ASSERT_TRUE(load_latest_snapshot(j.path, got))
        << "cut " << cut << ": intact first record lost";
    EXPECT_TRUE(snaps_equal(got, first))
        << "cut " << cut << ": restore returned a record that was never "
        << "fully written";
  }
}

// The degrade ladder's rotation step: a failed rewrite must leave the
// previous journal intact and never leave a torn .tmp behind; a successful
// rewrite after failures compacts to exactly the new snapshot.
TEST(Journal, FailedRewriteLeavesOldJournalAndNoTempFile) {
  const ManagerSnapshot first = sample_snapshot(0);
  const ManagerSnapshot second = sample_snapshot(1);
  JournalFile j("rewrite-fail");
  const std::string tmp = j.path + ".tmp";

  JournalWriter w(j.path);
  ASSERT_TRUE(w.append(first));

  {
    sf::SysFailConfig cfg;
    cfg.enabled = true;
    // Tear the rewrite's temp-file write after 5 bytes.
    cfg.triggers.push_back({sf::SysOp::kJournalWrite, 0, ENOSPC, 5, 0});
    sf::ScopedSysFail scoped(cfg);
    EXPECT_FALSE(w.rewrite(second));
  }
  EXPECT_NE(::access(tmp.c_str(), F_OK), 0) << "torn temp file left behind";
  ManagerSnapshot got;
  ASSERT_TRUE(load_latest_snapshot(j.path, got));
  EXPECT_TRUE(snaps_equal(got, first))
      << "failed rewrite damaged the existing journal";

  // Uninjected retry succeeds and compacts to the new snapshot alone.
  ASSERT_TRUE(w.rewrite(second));
  ASSERT_TRUE(load_latest_snapshot(j.path, got));
  EXPECT_TRUE(snaps_equal(got, second));
  EXPECT_EQ(w.records_written(), 1);
}

// Probabilistic soak: many seeds of ENOSPC/short-write noise; whatever the
// injector does, the journal never yields a snapshot that was not fully
// appended, and a final clean append always restores.
TEST(Journal, EnospcSoakNeverRestoresAHalfRecord) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    JournalFile j("enospc-soak");
    std::vector<ManagerSnapshot> appended;
    {
      sf::SysFailConfig cfg;
      cfg.enabled = true;
      cfg.seed = seed;
      cfg.journal_fail_prob = 0.4;
      sf::ScopedSysFail scoped(cfg);
      JournalWriter w(j.path, /*max_records=*/4);
      for (int i = 0; i < 16; ++i) {
        if (w.append(sample_snapshot(i))) {
          appended.push_back(sample_snapshot(i));
        }
      }
    }
    ManagerSnapshot got;
    if (load_latest_snapshot(j.path, got)) {
      bool known = false;
      for (const ManagerSnapshot& snap : appended) {
        if (snaps_equal(got, snap)) {
          known = true;
          break;
        }
      }
      EXPECT_TRUE(known) << "seed " << seed
                         << ": restored a snapshot that never fully landed";
    }
    // After the storm, one rotation — the ladder's response to a failed
    // append — must always restore cleanly: the tmp+rename rewrite cures
    // whatever torn tail the storm left behind (a plain append could stay
    // hidden behind it, since the restore scan stops at the first bad
    // record).
    JournalWriter w2(j.path);
    ASSERT_TRUE(w2.rewrite(sample_snapshot(99)));
    ASSERT_TRUE(load_latest_snapshot(j.path, got));
    EXPECT_TRUE(snaps_equal(got, sample_snapshot(99))) << "seed " << seed;
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
  JournalWriter w(j.path, /*max_records=*/3);  // compactions along the way
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
    for (int q = 0; q < 4; ++q) {
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
