#include "util/check.hpp"

namespace hetgrid::detail {

namespace {
std::string format(const char* kind, const char* expr, const char* file,
                   int line, const std::string& msg) {
  std::ostringstream oss;
  oss << kind << " failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) oss << " — " << msg;
  return oss.str();
}
}  // namespace

void throw_precondition(const char* expr, const char* file, int line,
                        const std::string& msg) {
  throw PreconditionError(format("precondition", expr, file, line, msg), msg);
}

void throw_internal(const char* expr, const char* file, int line,
                    const std::string& msg) {
  throw InternalError(format("internal invariant", expr, file, line, msg));
}

}  // namespace hetgrid::detail
