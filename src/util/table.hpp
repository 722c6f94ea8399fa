// Plain-text table rendering for the reports and examples, so every
// summary prints the same rows/series the paper's tables and figures report.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace mcs::util {

class Table {
public:
  explicit Table(std::vector<std::string> header);

  /// Appends one row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Convenience: formats doubles with the given precision.
  [[nodiscard]] static std::string fmt(double v, int precision = 2);
  [[nodiscard]] static std::string fmt(std::int64_t v);

  void print(std::ostream& os) const;
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace mcs::util
