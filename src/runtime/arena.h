// The shared arena (paper §4): one shared-memory page per application, the
// primary communication medium between the CPU manager and the application.
//
// The application's runtime accumulates the bus-transaction counts of all
// its threads and writes the total into the arena at every update period
// (the manager asks for updates twice per scheduling quantum); the manager
// reads it at its sampling points. The manager writes the application's
// run state before each block/unblock signal, and the signalled threads
// obey it (signal_gate.h). All fields are lock-free atomics — the two
// processes never block each other.
#pragma once

#include <atomic>
#include <cerrno>
#include <cstdint>

#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include "faults/sysfail.h"

namespace bbsched::runtime {

struct Arena {
  static constexpr std::uint32_t kMagic = 0x62627377;  // "bbsw"

  static constexpr std::uint32_t kRun = 0;
  static constexpr std::uint32_t kBlocked = 1;

  std::uint32_t magic = kMagic;

  /// The manager's intent for the application: kRun or kBlocked. Written
  /// by the manager before it signals the leader, never read back by it;
  /// each signal only tells the threads to re-read it.
  std::atomic<std::uint32_t> run_state{kRun};

  /// Cumulative bus transactions of all application threads (written by the
  /// application, read by the manager).
  std::atomic<std::uint64_t> transactions{0};

  /// Update-sequence counter (bumped by the application each write, lets
  /// the manager detect a stalled updater).
  std::atomic<std::uint64_t> heartbeats{0};

  /// How often the application should refresh `transactions` (µs); written
  /// once by the manager at connection time ("it also informs the
  /// application how often the bus transaction rate information on the
  /// shared arena is expected to be updated").
  std::atomic<std::uint64_t> update_period_us{0};

  /// Worker threads registered so far (written by the application).
  std::atomic<std::uint32_t> threads_registered{0};
};

static_assert(std::atomic<std::uint64_t>::is_always_lock_free &&
                  std::atomic<std::uint32_t>::is_always_lock_free,
              "arena requires lock-free 32- and 64-bit atomics");

/// Creates the anonymous backing file for one arena, sized and sealed to
/// sizeof(Arena). Returns the fd, or -1 with errno set (ENOMEM/ENOSPC
/// class) — the caller refuses admission with a typed nack rather than
/// crashing. Routed through the sysfail shim so exhaustion is injectable.
inline int arena_create_fd() {
  const int fd = faults::sys::memfd_create("bbsched-arena", 0);
  if (fd < 0) return -1;
  if (faults::sys::ftruncate(fd, sizeof(Arena)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return -1;
  }
  return fd;
}

/// Maps an arena fd into this process. Returns nullptr on failure (ENOMEM
/// under pressure) with errno set; never MAP_FAILED.
inline Arena* arena_map(int fd) {
  void* mem = faults::sys::mmap(nullptr, sizeof(Arena),
                                PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (mem == MAP_FAILED) return nullptr;
  return static_cast<Arena*>(mem);
}

inline void arena_unmap(Arena* arena) {
  if (arena != nullptr) ::munmap(arena, sizeof(Arena));
}

}  // namespace bbsched::runtime
