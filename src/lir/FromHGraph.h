//===- lir/FromHGraph.h - HGraph to SSA translation -------------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's HGraph-to-LLVM-bitcode translation pass (Section 3.5): SSA
/// construction over the register-based HGraph via iterated dominance
/// frontiers and Cytron renaming.
///
/// Faithful to the paper, the translation "is not as efficient as it can
/// be": it conservatively re-materializes runtime boundaries, duplicating
/// GC safepoints and copying call arguments. Stock pass pipelines clean up
/// the copies but not the safepoints — only the backend's custom GC-check
/// elision pass (Section 3.5) removes those, which is exactly why plain
/// -O3 can lose to the Android compiler on poll-heavy loops while the
/// genetic search (unroll + gc-elide) wins.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_LIR_FROM_HGRAPH_H
#define ROPT_LIR_FROM_HGRAPH_H

#include "hgraph/Hir.h"
#include "lir/Lir.h"

namespace ropt {
namespace lir {

/// Translation knobs (defaults replicate the paper's backend).
struct TranslateOptions {
  /// Duplicate safepoints and copy call arguments at runtime boundaries.
  bool ConservativeBoundaries = true;

  bool operator==(const TranslateOptions &) const = default;
};

/// Translates \p G into SSA form.
LFunction fromHGraph(const hgraph::HGraph &G,
                     const TranslateOptions &Options = TranslateOptions());

} // namespace lir
} // namespace ropt

#endif // ROPT_LIR_FROM_HGRAPH_H
