#include "support/cpu.hpp"

namespace alge::cpu {

bool avx512f() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

bool avx2() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool baseline() { return true; }

}  // namespace alge::cpu
