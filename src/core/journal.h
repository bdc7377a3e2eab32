// Crash-recovery journal for the user-level CPU manager.
//
// The manager's value is its learned state: per-feed bandwidth history
// (Quanta Window / EWMA), staleness-ladder positions, and the rotation
// order that makes elections starvation-free. A manager that restarts
// without it re-learns every feed from the initial estimate — measurably
// worse elections for window_len quanta (docs/ROBUSTNESS.md). The journal
// persists that state so a supervised restart resumes where the dead
// manager stopped.
//
// Format: an append-only sequence of self-delimiting records,
//
//   [u32 magic "BBSJ"] [u32 version] [u32 payload_len] [u32 crc32(payload)]
//   [payload bytes]
//
// written whole at a bounded cadence from the manager loop. Restore scans
// forward and keeps the *last* record whose header and CRC check out; a
// torn tail (crash mid-write), a truncated file, or flipped bytes simply
// end the scan early — recovery falls back to the previous record or to
// cold-start defaults, never to a half-written snapshot
// (tests/test_journal.cc tortures every byte offset to prove it).
//
// The journal is bounded: after `max_records` appends the writer compacts
// the file to its latest record via write-to-temp + atomic rename.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/bandwidth_stats.h"

namespace bbsched::core {

inline constexpr std::uint32_t kJournalMagic = 0x4a534242;  // "BBSJ"
inline constexpr std::uint32_t kJournalVersion = 1;

/// CRC-32 (IEEE 802.3, reflected) over `len` bytes.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t len) noexcept;

/// One application feed as journaled: identity plus everything the election
/// pipeline derives from its counter history.
struct FeedSnapshot {
  std::string name;
  int nthreads = 1;
  int miss_streak = 0;
  bool has_decayed_estimate = false;
  double decayed_estimate = 0.0;
  bool quarantined = false;
  TrackerSnapshot tracker;
};

/// Complete manager image at one quantum boundary. Feeds appear in
/// *pre-rotated* election order: the list order the next schedule_quantum()
/// would see after splicing the currently running gang to the tail. A
/// restored manager (whose running set is empty) then elects exactly what
/// the dead one would have elected next.
struct ManagerSnapshot {
  std::uint64_t quantum_index = 0;
  int dead_feed_quanta = 0;
  bool degraded = false;
  /// The last `running_tail` feeds were the elected gang at snapshot time.
  /// Adoption re-enters them into the running set, so the gang's in-flight
  /// quantum folds into its trackers on the first post-restore election
  /// instead of being dropped.
  int running_tail = 0;
  std::vector<FeedSnapshot> feeds;
};

/// Serializes a snapshot to the journal payload encoding (little-endian
/// fixed-width fields; no padding, no pointers).
void encode_snapshot(const ManagerSnapshot& snap, std::vector<char>& out);

/// Decodes a payload produced by encode_snapshot. Returns false on any
/// structural violation (short buffer, oversized counts/strings) — the
/// decoder never trusts its input even though the CRC already vouched for
/// it.
[[nodiscard]] bool decode_snapshot(const char* data, std::size_t len,
                                   ManagerSnapshot& out);

/// Append-only journal writer with size-bounded compaction.
class JournalWriter {
 public:
  /// `max_records` appends before the file is compacted to one record.
  explicit JournalWriter(std::string path, int max_records = 64)
      : path_(std::move(path)),
        tmp_path_(path_ + ".tmp"),
        max_records_(max_records) {}

  /// Appends one snapshot record (open → write whole record → close).
  /// Returns false on I/O failure; the manager treats that as advisory
  /// (journaling must never take the control plane down).
  bool append(const ManagerSnapshot& snap);

  /// Compacts the journal to this single snapshot via write-to-temp +
  /// atomic rename, reclaiming all space held by older records. `append`
  /// calls it at the max_records boundary; the manager's ENOSPC degrade
  /// ladder calls it directly as the bounded rotation step before falling
  /// back to journal-less operation (docs/ROBUSTNESS.md §9).
  bool rewrite(const ManagerSnapshot& snap);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] int records_written() const noexcept { return records_; }

 private:
  /// Frames `snap` into record_: header, then the payload encoded in
  /// place behind it.
  void encode_record(const ManagerSnapshot& snap);
  /// Writes record_ whole to `path` (open → write → close).
  bool write_file(const std::string& path, bool append) const;

  std::string path_;
  std::string tmp_path_;      ///< compaction temp file, `path_` + ".tmp"
  std::vector<char> record_;  ///< reused across appends: no steady allocs
  int max_records_;
  int records_ = 0;
};

/// Scans `path` and restores the newest intact snapshot into `out`.
/// Returns false when the file is missing, empty, or holds no valid record
/// — the caller cold-starts. Never throws, never crashes on garbage.
[[nodiscard]] bool load_latest_snapshot(const std::string& path,
                                        ManagerSnapshot& out);

}  // namespace bbsched::core
