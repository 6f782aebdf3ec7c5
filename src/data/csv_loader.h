#ifndef DIFFODE_DATA_CSV_LOADER_H_
#define DIFFODE_DATA_CSV_LOADER_H_

#include <string>
#include <vector>

#include "data/irregular_series.h"

namespace diffode::data {

// Plain-text interchange format for irregular series:
//
//   series_id,time,<channel_1>,...,<channel_f>[,label]
//
// * rows of one series must appear with strictly increasing time, the
//   IrregularSeries contract (rows with equal ids are grouped; ids need not
//   be contiguous in the file),
// * time and value cells must be finite; empty channel cells mean "not
//   observed" (mask 0),
// * the optional trailing `label` column (a non-negative integer, constant
//   per series) turns the file into a classification dataset,
// * a header line is detected (non-numeric second column) and skipped.
//
// Returns the parsed series; on malformed input returns an empty vector and
// fills *error with a line-numbered message.
std::vector<IrregularSeries> LoadCsv(const std::string& path,
                                     Index num_channels, bool has_label,
                                     std::string* error);

// Writes the same format (label column included when any label >= 0).
bool SaveCsv(const std::vector<IrregularSeries>& series,
             const std::string& path);

}  // namespace diffode::data

#endif  // DIFFODE_DATA_CSV_LOADER_H_
