// Plain-text table rendering for the benchmark harnesses, so every bench
// binary prints figures/tables in the same aligned format the paper uses.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace hetgrid {

/// Column-aligned text table with an optional title.
///
///   Table t("Figure 6");
///   t.header({"n", "avg workload"});
///   t.row({"2", "0.97"});
///   t.print(std::cout);
class Table {
 public:
  explicit Table(std::string title = "");

  void header(std::vector<std::string> cells);
  void row(std::vector<std::string> cells);

  /// Convenience: formats doubles with `precision` digits after the point.
  static std::string num(double v, int precision = 4);
  static std::string num(std::int64_t v);

  void print(std::ostream& os) const;

  /// Same data as CSV (header first), for downstream plotting.
  void print_csv(std::ostream& os) const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace hetgrid
