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
/// `dim` are an error. Non-finite values and an index repeated within a
/// line are refused, naming the line. A file whose dense rows would need
/// more bytes than the host's physical memory (one stray index of 10^12)
/// is OutOfRange, naming the line of the largest index.
///
/// Labels (here and in LoadCsv) are integers in int range (`1`, `1.0`).
/// A 0/1 file is mapped to −1/+1. Then a file is binary (2 classes) if its
/// labels lie in {−1, +1}, and multiclass (K = max + 1 classes) if they
/// are class ids ≥ 0. Any other file, e.g. labels {−1, 1, 2}, is refused,
/// naming the first line whose label fits neither. A class count whose
/// one-vs-all models (K × dim doubles) or K × K confusion counts exceed the
/// host's physical memory (one stray label of 2·10^9) is OutOfRange,
/// naming the line of the largest label.
Result<Dataset> LoadLibsvm(const std::string& path, size_t dim = 0);

/// LoadLibsvm's reader, keeping the rows sparse (explicit zeros dropped).
/// Its rows cost their nonzeros only, so it takes any index of a binary
/// file.
Result<SparseDataset> LoadLibsvmSparse(const std::string& path,
                                       size_t dim = 0);

/// Loads a dense CSV with the label in the last column, under LoadLibsvm's
/// label rule. Lines starting with '#' and blank lines are skipped; an
/// optional non-numeric first row is treated as a header.
Result<Dataset> LoadCsv(const std::string& path);

/// Writes a dataset in LIBSVM format (1-based indices, zeros skipped).
Status SaveLibsvm(const Dataset& dataset, const std::string& path);

}  // namespace bolton

#endif  // BOLTON_DATA_LOADERS_H_
