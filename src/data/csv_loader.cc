#include "data/csv_loader.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>

namespace diffode::data {
namespace {

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::stringstream ss(line);
  while (std::getline(ss, cell, ',')) cells.push_back(cell);
  if (!line.empty() && line.back() == ',') cells.push_back("");
  return cells;
}

bool ParseScalar(const std::string& cell, Scalar* out) {
  if (cell.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(cell.c_str(), &end);
  return end != cell.c_str() && *end == '\0';
}

// A class label: a non-negative integer small enough to convert to Index
// exactly. Rejects nan and inf.
bool IsLabel(Scalar l) {
  return l >= 0.0 && l <= 9007199254740992.0 && l == std::floor(l);
}

struct RawRow {
  Scalar time;
  std::vector<Scalar> values;
  std::vector<Scalar> mask;
  Index label;
};

}  // namespace

std::vector<IrregularSeries> LoadCsv(const std::string& path,
                                     Index num_channels, bool has_label,
                                     std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open " + path;
    return {};
  }
  const std::size_t expected_cells =
      2 + static_cast<std::size_t>(num_channels) + (has_label ? 1 : 0);
  // Preserve first-appearance order of series ids.
  std::map<std::string, std::size_t> id_to_slot;
  std::vector<std::vector<RawRow>> rows_by_series;
  std::string line;
  long line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::vector<std::string> cells = SplitCsvLine(line);
    Scalar probe = 0.0;
    if (line_no == 1 && cells.size() >= 2 && !ParseScalar(cells[1], &probe)) {
      continue;  // header
    }
    if (cells.size() != expected_cells) {
      if (error)
        *error = "line " + std::to_string(line_no) + ": expected " +
                 std::to_string(expected_cells) + " cells, got " +
                 std::to_string(cells.size());
      return {};
    }
    RawRow row;
    row.label = -1;
    if (!ParseScalar(cells[1], &row.time)) {
      if (error)
        *error = "line " + std::to_string(line_no) + ": bad time cell";
      return {};
    }
    if (!std::isfinite(row.time)) {
      if (error)
        *error = "line " + std::to_string(line_no) + ": non-finite time cell";
      return {};
    }
    for (Index c = 0; c < num_channels; ++c) {
      Scalar v = 0.0;
      if (ParseScalar(cells[static_cast<std::size_t>(2 + c)], &v)) {
        if (!std::isfinite(v)) {
          if (error)
            *error = "line " + std::to_string(line_no) +
                     ": non-finite value cell";
          return {};
        }
        row.values.push_back(v);
        row.mask.push_back(1.0);
      } else if (cells[static_cast<std::size_t>(2 + c)].empty()) {
        row.values.push_back(0.0);
        row.mask.push_back(0.0);
      } else {
        if (error)
          *error = "line " + std::to_string(line_no) + ": bad value cell";
        return {};
      }
    }
    if (has_label) {
      Scalar l = 0.0;
      if (!ParseScalar(cells.back(), &l) || !IsLabel(l)) {
        if (error)
          *error = "line " + std::to_string(line_no) +
                   ": label is not a non-negative integer";
        return {};
      }
      row.label = static_cast<Index>(l);
    }
    auto [it, inserted] =
        id_to_slot.try_emplace(cells[0], rows_by_series.size());
    if (inserted) rows_by_series.emplace_back();
    auto& rows = rows_by_series[it->second];
    if (!rows.empty() && row.time <= rows.back().time) {
      if (error)
        *error = "line " + std::to_string(line_no) +
                 (row.time < rows.back().time ? ": time goes backwards"
                                              : ": repeated time") +
                 " within series " + cells[0];
      return {};
    }
    rows.push_back(std::move(row));
  }
  std::vector<IrregularSeries> out;
  out.reserve(rows_by_series.size());
  for (const auto& rows : rows_by_series) {
    IrregularSeries s;
    const Index n = static_cast<Index>(rows.size());
    s.values = Tensor(Shape{n, num_channels});
    s.mask = Tensor(Shape{n, num_channels});
    for (Index i = 0; i < n; ++i) {
      const RawRow& row = rows[static_cast<std::size_t>(i)];
      s.times.push_back(row.time);
      for (Index c = 0; c < num_channels; ++c) {
        s.values.at(i, c) = row.values[static_cast<std::size_t>(c)];
        s.mask.at(i, c) = row.mask[static_cast<std::size_t>(c)];
      }
      s.label = row.label;
    }
    out.push_back(std::move(s));
  }
  return out;
}

bool SaveCsv(const std::vector<IrregularSeries>& series,
             const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << std::setprecision(17);
  bool any_label = false;
  for (const auto& s : series) any_label = any_label || s.label >= 0;
  out << "series_id,time";
  if (!series.empty())
    for (Index c = 0; c < series.front().num_features(); ++c)
      out << ",ch" << c;
  if (any_label) out << ",label";
  out << "\n";
  for (std::size_t k = 0; k < series.size(); ++k) {
    const auto& s = series[k];
    for (Index i = 0; i < s.length(); ++i) {
      out << k << "," << s.times[static_cast<std::size_t>(i)];
      for (Index c = 0; c < s.num_features(); ++c) {
        out << ",";
        if (s.mask.at(i, c) > 0) out << s.values.at(i, c);
      }
      if (any_label) out << "," << s.label;
      out << "\n";
    }
  }
  return bool(out);
}

}  // namespace diffode::data
