#include "runtime/signal_gate.h"

#include <cassert>
#include <cstring>
#include <sys/syscall.h>
#include <unistd.h>

namespace bbsched::runtime {

namespace {
/// Slot of the calling thread; -1 until registered.
thread_local int t_slot = -1;

pid_t gettid_portable() {
  return static_cast<pid_t>(::syscall(SYS_gettid));
}
}  // namespace

// bbsched:signal called from both handlers
SignalGate& SignalGate::instance() {
  static SignalGate gate;
  return gate;
}

void SignalGate::install() {
  bool expected = false;
  if (!installed_.compare_exchange_strong(expected, true)) return;

  struct sigaction sa{};
  sa.sa_handler = &SignalGate::handle_block;
  sigemptyset(&sa.sa_mask);
  // Keep the unblock signal deliverable while the block handler runs so the
  // suspension loop can be woken.
  sa.sa_flags = SA_RESTART;
  const int rc1 = sigaction(kBlockSignal, &sa, nullptr);
  assert(rc1 == 0);
  (void)rc1;

  sa.sa_handler = &SignalGate::handle_unblock;
  const int rc2 = sigaction(kUnblockSignal, &sa, nullptr);
  assert(rc2 == 0);
  (void)rc2;
}

int SignalGate::register_current_thread() {
  install();
  const int slot = nthreads_.fetch_add(1, std::memory_order_acq_rel);
  assert(slot < kMaxThreads && "signal gate slot table exhausted");
  handles_[slot] = pthread_self();
  blocks_[slot].store(0, std::memory_order_relaxed);
  unblocks_[slot].store(0, std::memory_order_relaxed);
  suspended_[slot].store(false, std::memory_order_relaxed);
  active_[slot].store(true, std::memory_order_release);
  t_slot = slot;
  if (slot == 0) {
    leader_tid_.store(gettid_portable(), std::memory_order_release);
  }
  return slot;
}

void SignalGate::unregister_current_thread() {
  if (t_slot >= 0) {
    active_[t_slot].store(false, std::memory_order_release);
    t_slot = -1;
  }
}

// bbsched:signal reads only a thread_local
int SignalGate::slot_of_self() const { return t_slot; }

// bbsched:signal leader's handler fans intents out to the other threads
void SignalGate::forward(int signo) {
  // Called from the leader's handler: fan the intent out to every other
  // registered thread. pthread_kill is async-signal-safe.
  const int n = nthreads_.load(std::memory_order_acquire);
  for (int s = 1; s < n; ++s) {
    if (active_[s].load(std::memory_order_acquire)) {
      pthread_kill(handles_[s], signo);
    }
  }
}

// bbsched:signal installed as the SIGUSR1 (block) handler
void SignalGate::handle_block(int /*signo*/) {
  const int saved_errno = errno;
  instance().on_block();
  errno = saved_errno;
}

// bbsched:signal installed as the SIGUSR2 (unblock) handler
void SignalGate::handle_unblock(int /*signo*/) {
  const int saved_errno = errno;
  instance().on_unblock();
  errno = saved_errno;
}

// bbsched:signal the suspension loop, runs entirely in handler context
void SignalGate::on_block() {
  const int slot = slot_of_self();
  if (slot < 0) return;  // unregistered thread (e.g. the arena updater)
  if (released_.load(std::memory_order_relaxed)) return;  // free-run mode
  if (slot == 0) forward(kBlockSignal);

  blocks_[slot].fetch_add(1, std::memory_order_relaxed);

  // The paper's counting rule: suspend only while blocks exceed unblocks,
  // tolerating inverted delivery of consecutive block/unblock intents. A
  // release (manager died) also ends the suspension: the releasing thread
  // wakes us with an unblock signal and the flag breaks the loop.
  //
  // The unblock signal stays masked from the loop check until sigsuspend
  // unmasks it atomically: an unblock landing in between stays pending and
  // ends the sigsuspend, instead of running just before it and leaving the
  // thread asleep. The handler's entry mask comes back when it returns.
  sigset_t unblock_set;
  sigemptyset(&unblock_set);
  sigaddset(&unblock_set, kUnblockSignal);
  sigset_t wait_mask;
  pthread_sigmask(SIG_BLOCK, &unblock_set, &wait_mask);
  sigdelset(&wait_mask, kUnblockSignal);

  while (!released_.load(std::memory_order_relaxed) &&
         blocks_[slot].load(std::memory_order_relaxed) >
             unblocks_[slot].load(std::memory_order_relaxed)) {
    suspended_[slot].store(true, std::memory_order_relaxed);
    sigsuspend(&wait_mask);  // returns after the unblock handler ran
  }
  suspended_[slot].store(false, std::memory_order_relaxed);
}

// bbsched:signal runs in handler context
void SignalGate::on_unblock() {
  const int slot = slot_of_self();
  if (slot < 0) return;
  if (slot == 0) forward(kUnblockSignal);
  unblocks_[slot].fetch_add(1, std::memory_order_relaxed);
}

void SignalGate::signal_slot(int slot, int signo) {
  assert(slot >= 0 && slot < nthreads_.load(std::memory_order_acquire));
  assert(active_[slot].load(std::memory_order_acquire));
  pthread_kill(handles_[slot], signo);
}

void SignalGate::release_all() {
  released_.store(true, std::memory_order_release);
  // Wake every registered thread: a suspended one re-checks the loop
  // condition (the flag now breaks it); a running one takes a harmless
  // unblock (extra unblocks never suspend anyone under the counting rule).
  const int n = nthreads_.load(std::memory_order_acquire);
  for (int s = 0; s < n; ++s) {
    if (active_[s].load(std::memory_order_acquire)) {
      pthread_kill(handles_[s], kUnblockSignal);
    }
  }
}

void SignalGate::rearm() {
  // Square the counts so history from the dead manager cannot re-suspend
  // (or permanently unblock) anyone under the new one.
  const int n = nthreads_.load(std::memory_order_acquire);
  for (int s = 0; s < n; ++s) {
    unblocks_[s].store(blocks_[s].load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  }
  released_.store(false, std::memory_order_release);
}

void SignalGate::reset_for_tests() {
  const int n = nthreads_.load(std::memory_order_acquire);
  for (int s = 0; s < n; ++s) {
    assert(!suspended_[s].load(std::memory_order_relaxed) &&
           "cannot reset the gate while a thread is suspended");
    active_[s].store(false, std::memory_order_relaxed);
    blocks_[s].store(0, std::memory_order_relaxed);
    unblocks_[s].store(0, std::memory_order_relaxed);
  }
  nthreads_.store(0, std::memory_order_release);
  leader_tid_.store(0, std::memory_order_release);
  released_.store(false, std::memory_order_release);
  t_slot = -1;
}

}  // namespace bbsched::runtime
