// Wire protocol between applications and the CPU manager: framed binary
// messages over a UNIX-domain stream socket. The arena file descriptor
// travels back to the application as SCM_RIGHTS ancillary data, so no
// filesystem-visible shm names are needed and cleanup is automatic.
//
// Every message is framed:
//
//   [MsgHeader: magic | version | type | payload_len | generation] [payload]
//
// The header is validated before a single payload byte is trusted: wrong
// magic, unknown version, unknown type, or a payload length that does not
// match the type's fixed payload size all classify the datagram as
// *corrupt* (RecvStatus::kBad) rather than as a clean disconnect — the
// manager counts these as server.faults.bad_message and drops the peer.
//
// `generation` is the manager's restart epoch, assigned by the supervisor
// (src/runtime/supervisor.h). Clients learn it from HelloAck and echo it on
// every subsequent message; after a crash+restart the new manager carries a
// higher generation, so a stale in-flight message from the previous epoch
// is rejected instead of silently acted upon. kHello/kReattach are exempt
// (they carry the client's *last known* generation, which is how a
// reattaching client and the new manager resynchronise).
#pragma once

#include <cstdint>
#include <sys/types.h>

namespace bbsched::runtime {

inline constexpr std::uint32_t kProtocolMagic = 0x62627332;  // "bbs2"
/// Covers the frames and the Arena layout: version 3 added
/// Arena::run_state, so an older peer is refused at the handshake instead
/// of misreading the arena.
inline constexpr std::uint16_t kProtocolVersion = 3;
inline constexpr std::size_t kMaxAppName = 48;

enum class MsgType : std::uint16_t {
  kHello = 1,     ///< app -> manager: first-time connection request
  kHelloAck = 2,  ///< manager -> app: accepted (+ arena fd via SCM_RIGHTS)
  kReady = 3,     ///< app -> manager: all workers registered; blockable
  kReattach = 4,  ///< app -> manager: reconnect after a manager restart
  kHelloNack = 5, ///< manager -> app: admission refused (typed reason)
};

struct MsgHeader {
  std::uint32_t magic = kProtocolMagic;
  std::uint16_t version = kProtocolVersion;
  std::uint16_t type = 0;           ///< MsgType
  std::uint32_t payload_len = 0;    ///< bytes following the header
  std::uint32_t generation = 0;     ///< manager restart epoch
};

/// Payload of kHello and kReattach (a reattach is a hello that asks the
/// manager to adopt journaled feed state instead of cold-starting the feed).
struct HelloMsg {
  std::int32_t pid = 0;         ///< application process id
  std::int32_t leader_tid = 0;  ///< kernel tid that receives manager signals
  std::int32_t nthreads = 1;    ///< worker threads the app will register
  char name[kMaxAppName] = {};
};

/// Payload of kHelloAck. The header's `generation` tells the client which
/// manager epoch it is now attached to.
struct HelloAck {
  std::uint64_t update_period_us = 0;  ///< requested arena refresh period
  std::int32_t app_id = -1;
};

/// Payload of kReady.
struct ReadyMsg {
  std::int32_t app_id = -1;
};

/// Why the manager refused an admission request (payload of kHelloNack).
/// Typed so a rejected client can distinguish "come back later" (overload,
/// rate limit) from "your request is broken" (invalid hello) — and so tests
/// can assert every hostile input lands in a *specific* rejection class.
enum class HelloNackReason : std::int32_t {
  kServerFull = 1,   ///< max_clients reached and nothing sheddable
  kInvalidHello = 2, ///< hello failed field validation (trust boundary)
  kRateLimited = 3,  ///< per-peer handshake-attempt budget exceeded
  kResourceExhausted = 4, ///< arena create/map failed (ENOMEM/ENOSPC class);
                          ///< transient on the manager's side — retry later
};

[[nodiscard]] const char* to_string(HelloNackReason reason) noexcept;

/// Payload of kHelloNack. Admission stays protocol-v2 wire compatible:
/// accepted clients see exactly the pre-hardening byte stream; only a
/// rejected client — which previously saw an unexplained close — receives
/// this frame before the manager drops the connection.
struct HelloNackMsg {
  std::int32_t reason = 0;          ///< HelloNackReason
  std::uint32_t retry_after_ms = 0; ///< backoff hint; 0 = do not retry
};

/// Expected payload size for `type`, or SIZE_MAX for an unknown type.
[[nodiscard]] std::size_t expected_payload_len(std::uint16_t type) noexcept;

enum class RecvStatus {
  kOk,       ///< header + payload received and validated
  kClosed,   ///< clean EOF before any header byte (peer disconnected)
  kTimeout,  ///< SO_RCVTIMEO expired before any header byte arrived
  kBad,      ///< corrupt/truncated frame: bad magic, version, type,
             ///< mismatched payload length, or a short read mid-message
};

/// Sends one framed message (header + payload), optionally attaching a file
/// descriptor as SCM_RIGHTS ancillary data on the header write.
/// Returns false on error. Retries EINTR.
bool send_msg(int sock, MsgType type, std::uint32_t generation,
              const void* payload, std::size_t payload_len, int fd = -1);

/// Receives and validates one framed message. `payload_cap` is the caller's
/// buffer size; the frame is rejected (kBad) if the declared payload does
/// not match expected_payload_len() or exceeds the buffer. If the peer
/// attached a descriptor it is stored in *fd_out (otherwise -1). Ancillary
/// descriptors beyond what the caller asked for are drained and closed, and
/// their count added to *unexpected_fds (never leaked into the receiver's
/// fd table — a hostile client must not be able to exhaust it with
/// SCM_RIGHTS spam).
RecvStatus recv_msg(int sock, MsgHeader& hdr, void* payload,
                    std::size_t payload_cap, int* fd_out = nullptr,
                    int* unexpected_fds = nullptr);

/// Sends `bytes` with an optional file descriptor as ancillary data.
/// Returns false on error. Retries EINTR; a partial sendmsg/send resumes
/// from the offset (the descriptor rides the first transferred byte and is
/// never re-sent on resume).
bool send_with_fd(int sock, const void* bytes, std::size_t len, int fd);

/// Receives exactly `len` bytes; if the peer attached a descriptor it is
/// stored in *fd_out (otherwise -1). Returns false on error / EOF.
/// A short recvmsg (signal mid-copy, SO_RCVTIMEO with partial progress,
/// injected short read) resumes from the offset rather than failing the
/// frame; descriptors received in any round are kept across the resume.
/// Every ancillary descriptor the kernel delivered beyond the one the
/// caller wanted (fd_out == nullptr means *none* were wanted) is closed
/// immediately and counted into *unexpected_fds when provided.
bool recv_with_fd(int sock, void* bytes, std::size_t len, int* fd_out,
                  int* unexpected_fds = nullptr);

/// Plain full-buffer send/recv with EINTR retry and partial-transfer
/// resume from the offset.
bool send_all(int sock, const void* bytes, std::size_t len);
bool recv_all(int sock, void* bytes, std::size_t len);

}  // namespace bbsched::runtime
