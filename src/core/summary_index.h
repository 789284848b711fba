#ifndef STMAKER_CORE_SUMMARY_INDEX_H_
#define STMAKER_CORE_SUMMARY_INDEX_H_

/// \file
/// Searchable summary store: keyword and landmark lookup over generated
/// summaries.

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/summary.h"

namespace stmaker {

/// \brief Searchable store of summaries — the second of the paper's named
/// open problems ("semantic queries on trajectory summarization", Sec. IX)
/// and the Sec. VI-C observation that mature text-processing techniques
/// apply directly to summaries.
///
/// An inverted index over (a) the features each summary describes, (b) the
/// landmarks its partitions pass through, and (c) the summary text.
/// Queries return document ids sorted ascending, so they compose with
/// And().
class SummaryIndex {
 public:
  using DocId = size_t;

  /// Adds a summary; returns its id (dense, insertion-ordered).
  DocId Add(Summary summary);

  size_t size() const { return summaries_.size(); }
  const Summary& summary(DocId id) const;

  /// Summaries that describe feature `feature` in some partition.
  std::vector<DocId> WithFeature(size_t feature) const;

  /// Summaries whose text contains `needle` (case-insensitive substring).
  std::vector<DocId> ContainingText(const std::string& needle) const;

  /// Set intersection of sorted id lists.
  static std::vector<DocId> And(const std::vector<DocId>& a,
                                const std::vector<DocId>& b);

 private:
  std::vector<Summary> summaries_;
  std::unordered_map<size_t, std::vector<DocId>> by_feature_;
};

}  // namespace stmaker

#endif  // STMAKER_CORE_SUMMARY_INDEX_H_
