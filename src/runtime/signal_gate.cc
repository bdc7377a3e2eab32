#include "runtime/signal_gate.h"

#include <cassert>
#include <cerrno>

namespace bbsched::runtime {

namespace {
/// Slot of the calling thread; -1 until registered.
thread_local int t_slot = -1;
}  // namespace

// bbsched:signal called from the handler
SignalGate& SignalGate::instance() {
  static SignalGate gate;
  return gate;
}

void SignalGate::install() {
  bool expected = false;
  if (!installed_.compare_exchange_strong(expected, true)) return;

  struct sigaction sa{};
  sa.sa_handler = &SignalGate::handle;
  sigemptyset(&sa.sa_mask);
  // Keep the unblock signal deliverable while the block handler runs so the
  // suspension loop can be woken.
  sa.sa_flags = SA_RESTART;
  const int rc1 = sigaction(kBlockSignal, &sa, nullptr);
  assert(rc1 == 0);
  (void)rc1;
  const int rc2 = sigaction(kUnblockSignal, &sa, nullptr);
  assert(rc2 == 0);
  (void)rc2;
}

int SignalGate::register_current_thread(const std::atomic<Arena*>* arena) {
  install();
  unregister_current_thread();  // a thread obeys one word
  const int slot = nthreads_.fetch_add(1, std::memory_order_acq_rel);
  assert(slot < kMaxThreads && "signal gate slot table exhausted");
  handles_[slot] = pthread_self();
  arenas_[slot].store(arena, std::memory_order_relaxed);
  suspended_[slot].store(false, std::memory_order_relaxed);
  active_[slot].store(true, std::memory_order_release);
  t_slot = slot;
  return slot;
}

void SignalGate::unregister_current_thread() {
  if (t_slot >= 0) {
    active_[t_slot].store(false, std::memory_order_release);
    t_slot = -1;
  }
}

// bbsched:signal installed for SIGUSR1 (block) and SIGUSR2 (unblock)
void SignalGate::handle(int signo) {
  const int saved_errno = errno;
  // An unregistered thread (e.g. the arena updater) ignores both signals.
  if (t_slot >= 0) instance().on_signal(t_slot, signo);
  errno = saved_errno;
}

// bbsched:signal reads the word the thread obeys
bool SignalGate::blocked(const std::atomic<Arena*>* arena) const {
  if (arena == nullptr) {
    return own_state_.load(std::memory_order_relaxed) == Arena::kBlocked;
  }
  const Arena* current = arena->load(std::memory_order_acquire);
  return current != nullptr &&
         current->run_state.load(std::memory_order_acquire) == Arena::kBlocked;
}

// bbsched:signal passes `signo` from an arena's first thread to the rest
void SignalGate::forward(int slot, const std::atomic<Arena*>* arena,
                         int signo) {
  const int n = nthreads_.load(std::memory_order_acquire);
  for (int s = 0; s < n; ++s) {
    if (s == slot || !active_[s].load(std::memory_order_acquire) ||
        arenas_[s].load(std::memory_order_relaxed) != arena) {
      continue;
    }
    if (s < slot) return;  // an earlier thread forwards, not this one
    pthread_kill(handles_[s], signo);
  }
}

// bbsched:signal the forwarding and the suspension loop, in handler context
void SignalGate::on_signal(int slot, int signo) {
  const std::atomic<Arena*>* const arena =
      arenas_[slot].load(std::memory_order_relaxed);
  if (arena == nullptr) {
    own_state_.store(signo == kBlockSignal ? Arena::kBlocked : Arena::kRun,
                     std::memory_order_relaxed);
  }

  if (signo == kUnblockSignal) forward(slot, arena, signo);
  if (signo != kBlockSignal) return;

  // Suspend while the word says blocked. A release (manager died) also ends
  // the suspension: the releasing thread wakes us with an unblock signal
  // and the flag breaks the loop. The block goes to the others on every
  // pass: blocks sent to this thread while it is in its handler stay
  // masked, so a sibling that ran on a "run" this thread woke too late to
  // see is told only here.
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

  while (!released_.load(std::memory_order_relaxed) && blocked(arena)) {
    forward(slot, arena, kBlockSignal);
    suspended_[slot].store(true, std::memory_order_relaxed);
    sigsuspend(&wait_mask);  // returns after the unblock handler ran
  }
  suspended_[slot].store(false, std::memory_order_relaxed);
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
  // unblock.
  const int n = nthreads_.load(std::memory_order_acquire);
  for (int s = 0; s < n; ++s) {
    if (active_[s].load(std::memory_order_acquire)) {
      pthread_kill(handles_[s], kUnblockSignal);
    }
  }
}

void SignalGate::reset_for_tests() {
  const int n = nthreads_.load(std::memory_order_acquire);
  for (int s = 0; s < n; ++s) {
    assert(!suspended_[s].load(std::memory_order_relaxed) &&
           "cannot reset the gate while a thread is suspended");
    active_[s].store(false, std::memory_order_relaxed);
    arenas_[s].store(nullptr, std::memory_order_relaxed);
  }
  nthreads_.store(0, std::memory_order_release);
  own_state_.store(Arena::kRun, std::memory_order_relaxed);
  released_.store(false, std::memory_order_release);
  t_slot = -1;
}

}  // namespace bbsched::runtime
