// Lightweight precondition / invariant checking for hetgrid.
//
// HG_CHECK is always on (cheap argument-validation at API boundaries);
// HG_DCHECK compiles out in release builds (hot-loop invariants).
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace hetgrid {

/// Thrown on violated API preconditions (bad sizes, out-of-range indices,
/// non-positive cycle-times, ...). Library code never aborts the process.
/// what() names the failed condition and its source location; message()
/// is the check's own text alone, what a command-line user should read.
class PreconditionError : public std::invalid_argument {
 public:
  PreconditionError(const std::string& what, std::string message)
      : std::invalid_argument(what), message_(std::move(message)) {}

  const std::string& message() const noexcept { return message_; }

 private:
  std::string message_;
};

/// Thrown when an algorithm reaches a state that should be impossible
/// (a broken internal invariant rather than bad user input).
class InternalError : public std::logic_error {
 public:
  explicit InternalError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {

[[noreturn]] void throw_precondition(const char* expr, const char* file,
                                     int line, const std::string& msg);
[[noreturn]] void throw_internal(const char* expr, const char* file, int line,
                                 const std::string& msg);

}  // namespace detail

}  // namespace hetgrid

#define HG_CHECK(cond, msg)                                                  \
  do {                                                                       \
    if (!(cond)) {                                                           \
      ::std::ostringstream hg_oss_;                                          \
      hg_oss_ << msg; /* NOLINT */                                           \
      ::hetgrid::detail::throw_precondition(#cond, __FILE__, __LINE__,       \
                                            hg_oss_.str());                  \
    }                                                                        \
  } while (0)

#define HG_INTERNAL_CHECK(cond, msg)                                         \
  do {                                                                       \
    if (!(cond)) {                                                           \
      ::std::ostringstream hg_oss_;                                          \
      hg_oss_ << msg; /* NOLINT */                                           \
      ::hetgrid::detail::throw_internal(#cond, __FILE__, __LINE__,           \
                                        hg_oss_.str());                      \
    }                                                                        \
  } while (0)

#ifdef NDEBUG
#define HG_DCHECK(cond, msg) \
  do {                       \
  } while (0)
#else
#define HG_DCHECK(cond, msg) HG_CHECK(cond, msg)
#endif
