#ifndef BOLTON_DATA_LOADERS_H_
#define BOLTON_DATA_LOADERS_H_

#include <string>

#include "data/dataset.h"
#include "data/sparse_dataset.h"
#include "util/result.h"

namespace bolton {

/// Loads a dataset in LIBSVM sparse format:
///   <label> <index>:<value> <index>:<value> ...
/// Indices are 1-based (standard for the format). If `dim` is 0 the
/// dimension is inferred as the largest index seen; otherwise indices above
/// `dim` are an error. Labels must be integral (`1` or `1.0`); for binary
/// files use ±1 (a 0/1 file is accepted and mapped to ∓1/±1). Non-finite
/// values and an index repeated within a line are refused, naming the line.
Result<Dataset> LoadLibsvm(const std::string& path, size_t dim = 0);

/// LoadLibsvm's reader, keeping the rows sparse (explicit zeros dropped).
Result<SparseDataset> LoadLibsvmSparse(const std::string& path,
                                       size_t dim = 0);

/// Loads a dense CSV with the label in the last column. Lines starting with
/// '#' and blank lines are skipped; an optional non-numeric first row is
/// treated as a header.
Result<Dataset> LoadCsv(const std::string& path);

/// Writes a dataset in LIBSVM format (1-based indices, zeros skipped).
Status SaveLibsvm(const Dataset& dataset, const std::string& path);

}  // namespace bolton

#endif  // BOLTON_DATA_LOADERS_H_
