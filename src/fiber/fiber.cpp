#include "fiber/fiber.hpp"

#include <ucontext.h>

#include <cstdint>
#include <exception>
#include <utility>

#include "fiber/ready_set.hpp"
#include "support/common.hpp"

// Context-switch mechanism selection.
//
// swapcontext() preserves the signal mask, which costs a sigprocmask
// syscall on every switch — an order of magnitude more than all of the
// scheduler's own bookkeeping combined. Fibers never touch the signal
// mask, so on x86-64 we switch stacks directly: push the System V
// callee-saved registers, swap %rsp, pop, ret (the classic fcontext
// technique). Sanitizer builds keep the ucontext path: TSan/ASan track
// fiber stacks through the intercepted swapcontext and would lose their
// shadow state across a raw %rsp swap. -DALGE_FIBER_FORCE_UCONTEXT
// restores the portable path everywhere. Both mechanisms are pure
// plumbing; scheduling order and all observable behavior are identical.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define ALGE_FIBER_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define ALGE_FIBER_SANITIZED 1
#endif
#endif
// AddressSanitizer is also told about each switch (start/finish_switch_fiber):
// without that, an exception thrown on a fiber stack makes
// __asan_handle_no_return unpoison the wrong stack and report a false
// stack-use-after-scope.
#if defined(__SANITIZE_ADDRESS__)
#define ALGE_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ALGE_FIBER_ASAN 1
#endif
#endif
#if defined(ALGE_FIBER_ASAN)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__x86_64__) && !defined(ALGE_FIBER_SANITIZED) && \
    !defined(ALGE_FIBER_FORCE_UCONTEXT)
#define ALGE_FIBER_FAST_SWITCH 1
#endif

#if defined(ALGE_FIBER_FAST_SWITCH)
// Save the callee-saved registers on the current stack, store the stack
// pointer through save_sp, adopt load_sp, restore, return "into" the
// resumed context. The compiler treats the call as a normal opaque
// function call, so caller-saved state is already spilled per the ABI.
// It starts a 64-byte line, so its timing does not move with the size of
// the code linked before it.
extern "C" void alge_fiber_switch(void** save_sp, void* load_sp);
asm(".text\n"
    ".p2align 6\n"
    ".globl alge_fiber_switch\n"
    ".type alge_fiber_switch, @function\n"
    "alge_fiber_switch:\n"
    "  pushq %rbp\n"
    "  pushq %rbx\n"
    "  pushq %r12\n"
    "  pushq %r13\n"
    "  pushq %r14\n"
    "  pushq %r15\n"
    "  movq %rsp, (%rdi)\n"
    "  movq %rsi, %rsp\n"
    "  popq %r15\n"
    "  popq %r14\n"
    "  popq %r13\n"
    "  popq %r12\n"
    "  popq %rbx\n"
    "  popq %rbp\n"
    "  retq\n"
    ".size alge_fiber_switch, . - alge_fiber_switch\n");
#endif

namespace alge::fiber {

namespace {
thread_local Scheduler* g_active = nullptr;

#if !defined(ALGE_FIBER_FAST_SWITCH)
/// Before a ucontext switch: the stack about to be entered. `fake_save`
/// keeps the leaving stack's fake frames; null when that stack is done.
void asan_leave(void** fake_save, const void* bottom, std::size_t size) {
#if defined(ALGE_FIBER_ASAN)
  __sanitizer_start_switch_fiber(fake_save, bottom, size);
#else
  (void)fake_save, (void)bottom, (void)size;
#endif
}

/// After a ucontext switch: completes it, and reports the stack just left.
void asan_arrive(void* fake, const void** left_bottom,
                 std::size_t* left_size) {
#if defined(ALGE_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(fake, left_bottom, left_size);
#else
  (void)fake, (void)left_bottom, (void)left_size;
#endif
}
#endif

#if defined(ALGE_FIBER_FAST_SWITCH)
/// Lay out a fresh fiber stack so that the first alge_fiber_switch into it
/// pops six zeroed registers and `ret`s into `entry`. The entry slot sits
/// at a 16-byte boundary so `entry` starts with the ABI-mandated
/// rsp % 16 == 8 of a just-called function; the zero word above it stops
/// stack walkers at the fiber boundary.
void* prepare_fast_stack(char* base, std::size_t size, void (*entry)()) {
  std::uintptr_t top = reinterpret_cast<std::uintptr_t>(base + size);
  top &= ~static_cast<std::uintptr_t>(15);
  top -= 16;
  void** slots = reinterpret_cast<void**>(top);
  slots[0] = reinterpret_cast<void*>(entry);
  slots[1] = nullptr;
  void** sp = slots - 6;
  for (int i = 0; i < 6; ++i) sp[i] = nullptr;
  return sp;
}
#endif
}  // namespace

struct Scheduler::Impl {
  ucontext_t main_ctx{};
#if defined(ALGE_FIBER_FAST_SWITCH)
  void* main_sp = nullptr;
#else
  // The scheduler's own stack and fake-frame handle, for asan_leave/arrive.
  const void* main_bottom = nullptr;
  std::size_t main_size = 0;
  void* main_fake = nullptr;
#endif
  ReadySet ready;
};

struct Scheduler::Fiber {
  enum class State { Ready, Blocked, Done };

  // make_unique_for_overwrite: a fiber stack must not be value-initialized
  // — zeroing would touch (and fault in) every page of every stack up
  // front, where actual use only ever touches the top few.
  explicit Fiber(std::function<void()> f, std::size_t bytes)
      : fn(std::move(f)),
        stack(std::make_unique_for_overwrite<char[]>(bytes)),
        stack_bytes(bytes) {}

  /// The reason shown in deadlock diagnostics: describe(describe_arg) when
  /// the lazy block() overload was used, block_reason otherwise.
  std::string reason() const {
    return describe != nullptr ? describe(describe_arg) : block_reason;
  }

  std::function<void()> fn;
  std::unique_ptr<char[]> stack;
  std::size_t stack_bytes;
  ucontext_t ctx{};
  // One word either way: a larger Fiber moves the heap layout of
  // 4096-fiber runs, and with it their peak RSS.
#if defined(ALGE_FIBER_FAST_SWITCH)
  void* sp = nullptr;  ///< suspended stack pointer (fast-switch mode)
#else
  void* asan_fake = nullptr;  ///< ASan fake-frame handle while suspended
#endif
  State state = State::Ready;
  bool started = false;
  bool cancel_requested = false;
  std::string block_reason;
  BlockDescriber describe = nullptr;
  const void* describe_arg = nullptr;
  std::exception_ptr exception;
};

Scheduler::Scheduler() : impl_(std::make_unique<Impl>()) {}

Scheduler::~Scheduler() {
  // If fibers are still live (run() threw, or was never called), unwind
  // their stacks so RAII objects on them are destroyed.
  if (live_ > 0) {
    try {
      cancel_all_live();
    } catch (...) {
      // Destructors must not throw; swallow any secondary failure.
    }
  }
}

Scheduler* Scheduler::active() { return g_active; }

Scheduler::FiberId Scheduler::spawn(std::function<void()> fn,
                                    std::size_t stack_bytes) {
  ALGE_REQUIRE(fn != nullptr, "fiber function must be callable");
  ALGE_REQUIRE(stack_bytes >= 16 * 1024, "stack of %zu bytes is too small",
               stack_bytes);
  fibers_.push_back(std::make_unique<Fiber>(std::move(fn), stack_bytes));
  ++live_;
  impl_->ready.resize(fibers_.size());
  impl_->ready.insert(fibers_.size() - 1);
  return static_cast<FiberId>(fibers_.size()) - 1;
}

void Scheduler::trampoline() {
  Scheduler* sched = g_active;
  Fiber& self = *sched->fibers_[static_cast<std::size_t>(sched->current_)];
#if !defined(ALGE_FIBER_FAST_SWITCH)
  asan_arrive(nullptr, &sched->impl_->main_bottom, &sched->impl_->main_size);
#endif
  try {
    self.fn();
  } catch (const FiberCancelled&) {
    // Normal teardown path; not an error.
  } catch (...) {
    self.exception = std::current_exception();
  }
  self.state = Fiber::State::Done;
  --sched->live_;
  // Jump back to the scheduler; this fiber never resumes.
#if defined(ALGE_FIBER_FAST_SWITCH)
  alge_fiber_switch(&self.sp, sched->impl_->main_sp);
#else
  asan_leave(nullptr, sched->impl_->main_bottom, sched->impl_->main_size);
  swapcontext(&self.ctx, &sched->impl_->main_ctx);
#endif
  ALGE_CHECK(false, "resumed a finished fiber");
  std::abort();
}

void Scheduler::run() {
  ALGE_REQUIRE(!running_, "Scheduler::run() is not reentrant");
  running_ = true;
  Scheduler* prev_active = g_active;
  g_active = this;
  std::exception_ptr failure;

  std::size_t cursor = 0;
  while (live_ > 0) {
    // Round-robin: first ready fiber at or after the cursor, cyclically.
    // The ready set keeps this O(1) regardless of how many fibers are
    // blocked; the wake order is identical to the historical linear scan.
    // A wake policy (schedule exploration) substitutes its own pick among
    // the same ready fibers — still a legal cooperative interleaving.
    std::ptrdiff_t next;
    if (policy_ != nullptr && !impl_->ready.empty()) {
      const std::size_t pick = policy_->pick(impl_->ready, cursor);
      ALGE_CHECK(impl_->ready.contains(pick),
                 "wake policy picked non-ready fiber %zu", pick);
      next = static_cast<std::ptrdiff_t>(pick);
    } else {
      next = impl_->ready.next_cyclic(cursor);
    }
    if (next < 0) {
      // Every live fiber is blocked: deadlock.
      std::string msg = "deadlock: all live fibers blocked:";
      for (std::size_t i = 0; i < fibers_.size(); ++i) {
        const Fiber& f = *fibers_[i];
        if (f.state == Fiber::State::Blocked) {
          msg += strfmt("\n  fiber %zu: %s", i, f.reason().c_str());
        }
      }
      failure = std::make_exception_ptr(DeadlockError(msg));
      break;
    }
    const std::size_t idx = static_cast<std::size_t>(next);
    Fiber& f = *fibers_[idx];
    cursor = idx + 1;  // next_cyclic wraps an off-the-end cursor to 0
    current_ = static_cast<FiberId>(idx);
    if (!f.started) {
      f.started = true;
#if defined(ALGE_FIBER_FAST_SWITCH)
      f.sp = prepare_fast_stack(f.stack.get(), f.stack_bytes, &trampoline);
#else
      getcontext(&f.ctx);
      f.ctx.uc_stack.ss_sp = f.stack.get();
      f.ctx.uc_stack.ss_size = f.stack_bytes;
      f.ctx.uc_link = nullptr;
      makecontext(&f.ctx, reinterpret_cast<void (*)()>(&trampoline), 0);
#endif
    }
#if defined(ALGE_FIBER_FAST_SWITCH)
    alge_fiber_switch(&impl_->main_sp, f.sp);
#else
    asan_leave(&impl_->main_fake, f.stack.get(), f.stack_bytes);
    swapcontext(&impl_->main_ctx, &f.ctx);
    asan_arrive(impl_->main_fake, nullptr, nullptr);
#endif
    current_ = -1;
    if (f.state == Fiber::State::Done) impl_->ready.erase(idx);
    if (f.exception && !failure) {
      failure = f.exception;
      f.exception = nullptr;
    }
    if (failure) break;
  }

  if (failure) {
    try {
      cancel_all_live();
    } catch (...) {
      // Keep the primary failure.
    }
  }
  g_active = prev_active;
  running_ = false;
  if (failure) std::rethrow_exception(failure);
}

void Scheduler::cancel_all_live() {
  // Resume every live fiber with the cancel flag set; its next (or current)
  // suspension point throws FiberCancelled, unwinding the fiber stack.
  for (std::size_t i = 0; i < fibers_.size() && live_ > 0; ++i) {
    Fiber& f = *fibers_[i];
    if (f.state == Fiber::State::Done) continue;
    f.cancel_requested = true;
    if (!f.started) {
      // Never ran: nothing on its stack; just retire it.
      f.state = Fiber::State::Done;
      impl_->ready.erase(i);
      --live_;
      continue;
    }
    Scheduler* prev_active = g_active;
    g_active = this;
    f.state = Fiber::State::Ready;
    current_ = static_cast<FiberId>(i);
#if defined(ALGE_FIBER_FAST_SWITCH)
    alge_fiber_switch(&impl_->main_sp, f.sp);
#else
    asan_leave(&impl_->main_fake, f.stack.get(), f.stack_bytes);
    swapcontext(&impl_->main_ctx, &f.ctx);
    asan_arrive(impl_->main_fake, nullptr, nullptr);
#endif
    current_ = -1;
    g_active = prev_active;
    impl_->ready.erase(i);
    ALGE_CHECK(f.state == Fiber::State::Done,
               "cancelled fiber %zu suspended again", i);
  }
}

void Scheduler::check_cancel() const {
  const Fiber& f = *fibers_[static_cast<std::size_t>(current_)];
  if (f.cancel_requested) throw FiberCancelled();
}

void Scheduler::switch_to_scheduler() {
  Fiber& f = *fibers_[static_cast<std::size_t>(current_)];
#if defined(ALGE_FIBER_FAST_SWITCH)
  alge_fiber_switch(&f.sp, impl_->main_sp);
#else
  asan_leave(&f.asan_fake, impl_->main_bottom, impl_->main_size);
  swapcontext(&f.ctx, &impl_->main_ctx);
  asan_arrive(f.asan_fake, &impl_->main_bottom, &impl_->main_size);
#endif
  // Resumed: if the scheduler wants us dead, unwind now.
  check_cancel();
}

void Scheduler::yield() {
  ALGE_REQUIRE(current_ >= 0, "yield() outside a fiber");
  check_cancel();
  switch_to_scheduler();
}

void Scheduler::block_common(Fiber& f) {
  f.state = Fiber::State::Blocked;
  impl_->ready.erase(static_cast<std::size_t>(current_));
  switch_to_scheduler();
  // Resumed: the describer argument pointed at stack state that is only
  // guaranteed alive while blocked; drop it before running on.
  f.describe = nullptr;
  f.describe_arg = nullptr;
}

void Scheduler::block(std::string reason) {
  ALGE_REQUIRE(current_ >= 0, "block() outside a fiber");
  check_cancel();
  Fiber& f = *fibers_[static_cast<std::size_t>(current_)];
  f.block_reason = std::move(reason);
  f.describe = nullptr;
  block_common(f);
}

void Scheduler::block(BlockDescriber describe, const void* arg) {
  ALGE_REQUIRE(current_ >= 0, "block() outside a fiber");
  ALGE_REQUIRE(describe != nullptr, "block() needs a describer");
  check_cancel();
  Fiber& f = *fibers_[static_cast<std::size_t>(current_)];
  f.describe = describe;
  f.describe_arg = arg;
  block_common(f);
}

void Scheduler::unblock(FiberId id) {
  ALGE_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < fibers_.size(),
               "unblock(%d): no such fiber", id);
  Fiber& f = *fibers_[static_cast<std::size_t>(id)];
  ALGE_REQUIRE(f.state != Fiber::State::Done, "unblock(%d): fiber finished",
               id);
  if (f.state == Fiber::State::Blocked) {
    f.state = Fiber::State::Ready;
    impl_->ready.insert(static_cast<std::size_t>(id));
  }
}

}  // namespace alge::fiber
