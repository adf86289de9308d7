// Bare-metal user-thread context switch for x86-64 SysV.
//
// This is the host-runtime analogue of the paper's "lightweight context
// switching" (§2.4): a switch saves exactly the callee-saved registers and
// the stack pointer — no kernel, no signal masks, no FPU state (the SysV ABI
// makes all vector registers caller-saved across the call).
#ifndef SRC_RUNTIME_CONTEXT_H_
#define SRC_RUNTIME_CONTEXT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "src/base/compiler.h"

extern "C" {

// Saves the current callee-saved state on the current stack, stores the
// resulting stack pointer into *save_sp, switches to restore_sp, stores
// false into *on_cpu, restores callee-saved state, and returns on the new
// stack.
//
// `on_cpu` is the departing context's "still on its stack" flag: a uthread
// passes its own (UThread::on_cpu), the scheduler stack a worker-owned
// byte nobody reads. It is cleared only once rsp has left the old stack, so
// a signal frame never lands on a stack another worker may already be
// resuming; whoever switches into a uthread first waits for its flag to
// clear (Runtime::SwitchTo). That is what lets Park publish itself as
// parked before it switches out: a racing Unpark may queue it on another
// worker, which then waits a few ns instead of running on a live stack.
//
// This is THE switch primitive: the may-switch set skylint enforces is the
// transitive-caller closure of this annotation. It is also called from the
// preemption signal handler, so it must stay async-signal-safe.
SKYLOFT_MAY_SWITCH SKYLOFT_SIGNAL_SAFE void skyloft_ctx_switch(void** save_sp, void* restore_sp,
                                                              std::atomic<bool>* on_cpu);

}  // extern "C"

namespace skyloft {

// Entry function invoked on a fresh uthread stack; receives the pointer that
// was passed to InitContext.
using UthreadEntry = void (*)(void* arg);

// Prepares a fresh stack so that switching into the returned stack pointer
// lands in `entry(arg)` with a correctly aligned stack.
//   stack_base: lowest address of the stack allocation
//   stack_size: bytes
SKYLOFT_NO_SWITCH void* InitContext(void* stack_base, std::size_t stack_size, UthreadEntry entry,
                                    void* arg);

}  // namespace skyloft

#endif  // SRC_RUNTIME_CONTEXT_H_
