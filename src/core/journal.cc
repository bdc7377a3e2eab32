#include "core/journal.h"

#include <cstdio>
#include <cstring>

#include "faults/sysfail.h"

namespace bbsched::core {

namespace {

/// Table-driven CRC-32; the table is built once at first use.
const std::uint32_t* crc_table() {
  static std::uint32_t table[256];
  static const bool built = [] {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1U) ? 0xedb88320U ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return true;
  }();
  (void)built;
  return table;
}

// ---- payload encoding primitives (little-endian, fixed width) ----

template <typename T>
void put(std::vector<char>& out, T v) {
  // resize+memcpy rather than insert(): GCC 12's -Werror=array-bounds
  // false-fires on the insert path at some inlining depths.
  const std::size_t off = out.size();
  out.resize(off + sizeof(T));
  std::memcpy(out.data() + off, &v, sizeof(T));
}

void put_string(std::vector<char>& out, const std::string& s) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

/// Appends the payload encoding of `snap` to `out`.
void append_snapshot(const ManagerSnapshot& snap, std::vector<char>& out) {
  put<std::uint64_t>(out, snap.quantum_index);
  put<std::int32_t>(out, snap.dead_feed_quanta);
  put<std::uint8_t>(out, snap.degraded ? 1 : 0);
  put<std::int32_t>(out, snap.running_tail);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(snap.feeds.size()));
  for (const FeedSnapshot& f : snap.feeds) {
    put_string(out, f.name);
    put<std::int32_t>(out, f.nthreads);
    put<std::int32_t>(out, f.miss_streak);
    put<std::uint8_t>(out, f.has_decayed_estimate ? 1 : 0);
    put<double>(out, f.decayed_estimate);
    put<std::uint8_t>(out, f.quarantined ? 1 : 0);
    put<std::uint8_t>(out, f.tracker.has_latest ? 1 : 0);
    put<double>(out, f.tracker.latest);
    put<std::uint8_t>(out, f.tracker.ewma_seeded ? 1 : 0);
    put<double>(out, f.tracker.ewma);
    put<std::uint32_t>(out,
                       static_cast<std::uint32_t>(f.tracker.window.size()));
    for (double rate : f.tracker.window) put<double>(out, rate);
  }
}

/// Bounded sequential reader over an untrusted buffer.
struct Reader {
  const char* p;
  std::size_t left;

  template <typename T>
  bool get(T& v) {
    if (left < sizeof(T)) return false;
    std::memcpy(&v, p, sizeof(T));
    p += sizeof(T);
    left -= sizeof(T);
    return true;
  }

  bool get_string(std::string& s, std::uint32_t max_len) {
    std::uint32_t n = 0;
    if (!get(n) || n > max_len || left < n) return false;
    s.assign(p, n);
    p += n;
    left -= n;
    return true;
  }
};

// Sanity ceilings for decoded counts: far above anything the manager can
// produce, low enough that CRC-validated-but-hostile input cannot force
// pathological allocations.
constexpr std::uint32_t kMaxFeeds = 4096;
constexpr std::uint32_t kMaxWindow = 65536;
constexpr std::uint32_t kMaxName = 256;

struct RecordHeader {
  std::uint32_t magic;
  std::uint32_t version;
  std::uint32_t payload_len;
  std::uint32_t crc;
};

constexpr std::size_t kHeaderSize = sizeof(RecordHeader);

// A snapshot payload can hold up to kMaxFeeds × kMaxWindow doubles in
// principle; in practice records are a few KB. Reject anything implausibly
// large before allocating.
constexpr std::uint32_t kMaxPayload = 64U * 1024U * 1024U;

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len) noexcept {
  const std::uint32_t* table = crc_table();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xffffffffU;
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xffU] ^ (c >> 8);
  }
  return c ^ 0xffffffffU;
}

void encode_snapshot(const ManagerSnapshot& snap, std::vector<char>& out) {
  out.clear();
  append_snapshot(snap, out);
}

bool decode_snapshot(const char* data, std::size_t len, ManagerSnapshot& out) {
  Reader r{data, len};
  out = ManagerSnapshot{};

  std::uint8_t degraded = 0;
  std::uint32_t feed_count = 0;
  if (!r.get(out.quantum_index) || !r.get(out.dead_feed_quanta) ||
      !r.get(degraded) || !r.get(out.running_tail) || !r.get(feed_count) ||
      feed_count > kMaxFeeds || out.running_tail < 0 ||
      static_cast<std::uint32_t>(out.running_tail) > feed_count) {
    return false;
  }
  out.degraded = degraded != 0;

  out.feeds.resize(feed_count);
  for (FeedSnapshot& f : out.feeds) {
    std::uint8_t has_decay = 0, quarantined = 0, has_latest = 0, seeded = 0;
    std::uint32_t window_len = 0;
    if (!r.get_string(f.name, kMaxName) || !r.get(f.nthreads) ||
        !r.get(f.miss_streak) || !r.get(has_decay) ||
        !r.get(f.decayed_estimate) || !r.get(quarantined) ||
        !r.get(has_latest) || !r.get(f.tracker.latest) || !r.get(seeded) ||
        !r.get(f.tracker.ewma) || !r.get(window_len) ||
        window_len > kMaxWindow || f.nthreads < 1) {
      return false;
    }
    f.has_decayed_estimate = has_decay != 0;
    f.quarantined = quarantined != 0;
    f.tracker.has_latest = has_latest != 0;
    f.tracker.ewma_seeded = seeded != 0;
    f.tracker.window.resize(window_len);
    for (double& rate : f.tracker.window) {
      if (!r.get(rate)) return false;
    }
  }
  return r.left == 0;  // trailing garbage means a framing bug somewhere
}

bool JournalWriter::write_file(const std::string& path, bool append) const {
  std::FILE* f = std::fopen(path.c_str(), append ? "ab" : "wb");
  if (f == nullptr) return false;
  // Routed through the sysfail shim: an injected ENOSPC or short write
  // leaves a torn record prefix on disk, exactly what a full filesystem
  // produces — load_latest_snapshot's forward scan discards it.
  const bool ok = faults::sys::fwrite(record_.data(), 1, record_.size(), f) ==
                  record_.size();
  return (std::fclose(f) == 0) && ok;
}

void JournalWriter::encode_record(const ManagerSnapshot& snap) {
  // resize, not clear: the buffer keeps its capacity across appends, so a
  // steady manager frames records without allocating.
  record_.resize(kHeaderSize);
  append_snapshot(snap, record_);
  const std::size_t len = record_.size() - kHeaderSize;
  const RecordHeader h{kJournalMagic, kJournalVersion,
                       static_cast<std::uint32_t>(len),
                       crc32(record_.data() + kHeaderSize, len)};
  std::memcpy(record_.data(), &h, kHeaderSize);
}

bool JournalWriter::append(const ManagerSnapshot& snap) {
  encode_record(snap);
  // Append only behind a record this writer landed: restore stops at a torn
  // record (a failed append's prefix, a dead manager's tail).
  if (records_ > 0 && records_ < kJournalMaxRecords &&
      write_file(path_, /*append=*/true)) {
    ++records_;
    return true;
  }
  // Otherwise replace the file via temp file + atomic rename: a crash leaves
  // the old journal or the new one, both restorable, and no torn tail.
  records_ = 0;
  if (!write_file(tmp_path_, /*append=*/false) ||
      std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_path_.c_str());  // never leave a torn temp behind
    return false;
  }
  records_ = 1;
  return true;
}

bool load_latest_snapshot(const std::string& path, ManagerSnapshot& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::vector<char> bytes;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);

  // Forward scan: remember the newest record that passes header + CRC +
  // structural decode. Any violation ends the scan — after a torn or
  // corrupt record, subsequent offsets cannot be trusted to be aligned.
  bool found = false;
  ManagerSnapshot candidate;
  std::size_t off = 0;
  while (off + kHeaderSize <= bytes.size()) {
    RecordHeader h{};
    std::memcpy(&h, bytes.data() + off, kHeaderSize);
    if (h.magic != kJournalMagic || h.version != kJournalVersion ||
        h.payload_len > kMaxPayload) {
      break;
    }
    if (off + kHeaderSize + h.payload_len > bytes.size()) break;  // torn tail
    const char* payload = bytes.data() + off + kHeaderSize;
    if (crc32(payload, h.payload_len) != h.crc) break;
    if (decode_snapshot(payload, h.payload_len, candidate)) {
      out = candidate;
      found = true;
    } else {
      break;
    }
    off += kHeaderSize + h.payload_len;
  }
  return found;
}

}  // namespace bbsched::core
