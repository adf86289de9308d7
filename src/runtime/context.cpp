#include "src/runtime/context.h"

#include "src/base/logging.h"

// Layout of a switched-out stack (growing down):
//   [ ... frames ... ]
//   return address        <- where skyloft_ctx_switch returns to
//   rbp
//   rbx
//   r12
//   r13
//   r14
//   r15                   <- saved rsp points here
//
// A fresh thread's stack is forged so that the first switch-in "returns"
// into a trampoline that pops entry/arg from the stack area.
//
// The switch lives in the skyloft_switch_entry section with the runtime's
// switch-out entry points, where the preemption handler defers: between the
// stack swap and the on_cpu store, a preemption would leave the departing
// context marked on-CPU until the interrupted switch resumed.
__asm__(
    ".pushsection skyloft_switch_entry,\"ax\",@progbits\n"
    ".globl skyloft_ctx_switch\n"
    ".type skyloft_ctx_switch,@function\n"
    ".align 16\n"
    "skyloft_ctx_switch:\n"
    "  pushq %rbp\n"
    "  pushq %rbx\n"
    "  pushq %r12\n"
    "  pushq %r13\n"
    "  pushq %r14\n"
    "  pushq %r15\n"
    "  movq %rsp, (%rdi)\n"
    "  movq %rsi, %rsp\n"
    "  movb $0, (%rdx)\n"  // on_cpu = false, once rsp is off the old stack
    "  popq %r15\n"
    "  popq %r14\n"
    "  popq %r13\n"
    "  popq %r12\n"
    "  popq %rbx\n"
    "  popq %rbp\n"
    "  retq\n"
    ".size skyloft_ctx_switch,.-skyloft_ctx_switch\n"
    ".popsection\n"
    ".text\n"
    // Trampoline: the forged stack leaves entry in %r12 and arg in %r13
    // (callee-saved, so the switch restored them). Aligns and calls.
    ".globl skyloft_ctx_trampoline\n"
    ".type skyloft_ctx_trampoline,@function\n"
    ".align 16\n"
    "skyloft_ctx_trampoline:\n"
    "  movq %r13, %rdi\n"
    "  andq $-16, %rsp\n"  // SysV: rsp must be 16-aligned at the call
    "  callq *%r12\n"
    "  ud2\n"  // entry must never return (it switches away forever)
    ".size skyloft_ctx_trampoline,.-skyloft_ctx_trampoline\n");

extern "C" void skyloft_ctx_trampoline();

namespace skyloft {

void* InitContext(void* stack_base, std::size_t stack_size, UthreadEntry entry, void* arg) {
  SKYLOFT_CHECK(stack_size >= 1024);
  auto top = reinterpret_cast<std::uintptr_t>(stack_base) + stack_size;
  top &= ~std::uintptr_t{15};  // 16-byte align the logical stack top

  auto* sp = reinterpret_cast<std::uint64_t*>(top);
  // Fake return address (terminates debugger backtraces) ...
  *--sp = 0;
  // ... then the trampoline "return address". After the 6 register pops the
  // switch's retq consumes this slot, leaving rsp ≡ 8 (mod 16) at trampoline
  // entry, exactly as if it had been call'ed — keeping callees aligned.
  *--sp = reinterpret_cast<std::uint64_t>(&skyloft_ctx_trampoline);
  *--sp = 0;                                          // rbp
  *--sp = 0;                                          // rbx
  *--sp = reinterpret_cast<std::uint64_t>(entry);     // r12 -> entry
  *--sp = reinterpret_cast<std::uint64_t>(arg);       // r13 -> arg
  *--sp = 0;                                          // r14
  *--sp = 0;                                          // r15
  return sp;
}

}  // namespace skyloft
