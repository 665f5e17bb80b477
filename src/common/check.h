#ifndef LBSQ_COMMON_CHECK_H_
#define LBSQ_COMMON_CHECK_H_

#include <cstdio>
#include <cstdlib>

/// \file
/// Contract-checking macros. The library does not use C++ exceptions; a failed
/// check indicates a programming error and aborts the process with a message
/// naming the violated condition and its source location.

namespace lbsq::internal {

[[noreturn]] inline void CheckFailed(const char* condition, const char* file, int line) {
  std::fprintf(stderr, "LBSQ_CHECK failed: %s at %s:%d\n", condition, file, line);
  std::abort();
}

}  // namespace lbsq::internal

/// Aborts the process when `condition` evaluates to false. Always enabled,
/// including in release builds: the simulator's correctness accounting relies
/// on these invariants holding.
#define LBSQ_CHECK(condition)                                            \
  do {                                                                   \
    if (!(condition)) {                                                  \
      ::lbsq::internal::CheckFailed(#condition, __FILE__, __LINE__);     \
    }                                                                    \
  } while (false)

/// Validators that report instead of aborting: a function returning
/// `const char*` states each rule with LBSQ_RULE and returns nullptr after
/// the last one, so the first rule that does not hold returns its own text.
/// One rule list then serves both an aborting `Validate()` (through
/// LBSQ_CHECK_RULES) and a tool that prints the rule as a flag error.
#define LBSQ_RULE(condition)             \
  do {                                   \
    if (!(condition)) return #condition; \
  } while (false)

/// Aborts, naming the rule, when `violation` (a validator's result) is set.
#define LBSQ_CHECK_RULES(violation)                                      \
  do {                                                                   \
    if (const char* lbsq_violation_ = (violation)) {                     \
      ::lbsq::internal::CheckFailed(lbsq_violation_, __FILE__, __LINE__); \
    }                                                                    \
  } while (false)

/// Convenience comparison checks (report the expression, not the values).
#define LBSQ_CHECK_EQ(a, b) LBSQ_CHECK((a) == (b))
#define LBSQ_CHECK_NE(a, b) LBSQ_CHECK((a) != (b))
#define LBSQ_CHECK_LE(a, b) LBSQ_CHECK((a) <= (b))
#define LBSQ_CHECK_LT(a, b) LBSQ_CHECK((a) < (b))
#define LBSQ_CHECK_GE(a, b) LBSQ_CHECK((a) >= (b))
#define LBSQ_CHECK_GT(a, b) LBSQ_CHECK((a) > (b))

#endif  // LBSQ_COMMON_CHECK_H_
