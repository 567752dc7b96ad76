//===- dataflow/Dataflow.cpp -----------------------------------------------===//

#include "dataflow/Dataflow.h"

#include <bit>

#include "graph/Dfs.h"
#include "support/FactArena.h"
#include "support/Stats.h"

using namespace lcm;

const char *lcm::solverStrategyName(SolverStrategy S) {
  switch (S) {
  case SolverStrategy::RoundRobin:
    return "round-robin";
  case SolverStrategy::Worklist:
    return "worklist";
  case SolverStrategy::Sparse:
    return "sparse";
  }
  return "?";
}

namespace {

/// Applies Out = Gen | (In & ~Kill) into \p Dst; returns true if changed.
bool applyTransfer(const GenKill &T, const BitVector &In, BitVector &Dst) {
  BitVector New = In;
  New.andNot(T.Kill);
  New |= T.Gen;
  if (New == Dst)
    return false;
  Dst = std::move(New);
  return true;
}

/// Meets \p Src into \p Acc.
void meetInto(BitVector &Acc, const BitVector &Src, Meet M) {
  if (M == Meet::Intersection)
    Acc &= Src;
  else
    Acc |= Src;
}

} // namespace

DataflowResult lcm::solveGenKill(const Function &Fn, Direction Dir, Meet M,
                                 const std::vector<GenKill> &Transfers,
                                 const BitVector &Boundary) {
  assert(Transfers.size() >= Fn.numBlocks() && "one transfer per block");
  const size_t Universe = Boundary.size();
  const uint64_t OpsBefore = BitVectorOps::snapshot();
  const uint64_t SimdOpsBefore = BitVectorOps::snapshotSimd();

  DataflowResult R;
  const bool Neutral = (M == Meet::Intersection);
  R.In.assign(Fn.numBlocks(), BitVector(Universe, Neutral));
  R.Out.assign(Fn.numBlocks(), BitVector(Universe, Neutral));

  const std::vector<BlockId> Order =
      Dir == Direction::Forward ? reversePostOrder(Fn) : postOrder(Fn);
  const BlockId BoundaryBlock =
      Dir == Direction::Forward ? Fn.entry() : Fn.exit();

  if (Dir == Direction::Forward)
    R.In[BoundaryBlock] = Boundary;
  else
    R.Out[BoundaryBlock] = Boundary;

  bool Changed = true;
  while (Changed) {
    Changed = false;
    ++R.Stats.Passes;
    for (BlockId B : Order) {
      ++R.Stats.NodeVisits;
      if (Dir == Direction::Forward) {
        if (B != BoundaryBlock) {
          BitVector NewIn(Universe, Neutral);
          for (BlockId P : Fn.block(B).preds())
            meetInto(NewIn, R.Out[P], M);
          R.In[B] = std::move(NewIn);
        }
        Changed |= applyTransfer(Transfers[B], R.In[B], R.Out[B]);
      } else {
        if (B != BoundaryBlock) {
          BitVector NewOut(Universe, Neutral);
          for (BlockId S : Fn.block(B).succs())
            meetInto(NewOut, R.In[S], M);
          R.Out[B] = std::move(NewOut);
        }
        Changed |= applyTransfer(Transfers[B], R.Out[B], R.In[B]);
      }
    }
  }

  R.Stats.WordOps = BitVectorOps::snapshot() - OpsBefore;
  Stats::bump("dataflow.solves");
  Stats::bump("dataflow.passes", R.Stats.Passes);
  Stats::bump("dataflow.node_visits", R.Stats.NodeVisits);
  Stats::bump("dataflow.word_ops", R.Stats.WordOps);
  const uint64_t SimdOps = BitVectorOps::snapshotSimd() - SimdOpsBefore;
  Stats::bump("dataflow.word_ops_simd", SimdOps);
  Stats::bump("dataflow.word_ops_scalar", R.Stats.WordOps - SimdOps);
  return R;
}

DataflowResult lcm::solveGenKillWorklist(const Function &Fn, Direction Dir,
                                         Meet M,
                                         const std::vector<GenKill> &Transfers,
                                         const BitVector &Boundary) {
  assert(Transfers.size() >= Fn.numBlocks() && "one transfer per block");
  const size_t Universe = Boundary.size();
  const uint64_t OpsBefore = BitVectorOps::snapshot();
  const uint64_t SimdOpsBefore = BitVectorOps::snapshotSimd();

  DataflowResult R;
  const bool Neutral = (M == Meet::Intersection);
  R.In.assign(Fn.numBlocks(), BitVector(Universe, Neutral));
  R.Out.assign(Fn.numBlocks(), BitVector(Universe, Neutral));

  const std::vector<BlockId> Order =
      Dir == Direction::Forward ? reversePostOrder(Fn) : postOrder(Fn);
  const BlockId BoundaryBlock =
      Dir == Direction::Forward ? Fn.entry() : Fn.exit();
  if (Dir == Direction::Forward)
    R.In[BoundaryBlock] = Boundary;
  else
    R.Out[BoundaryBlock] = Boundary;

  // FIFO worklist seeded in iteration order; OnList dedups membership.
  std::vector<BlockId> Queue(Order);
  std::vector<bool> OnList(Fn.numBlocks(), true);
  size_t Head = 0;
  auto push = [&Queue, &OnList](BlockId B) {
    if (!OnList[B]) {
      OnList[B] = true;
      Queue.push_back(B);
    }
  };

  while (Head != Queue.size()) {
    // Compact the consumed prefix once it dominates the buffer, keeping
    // memory proportional to pending work instead of total visits.  The
    // erase is O(live) and amortized by the >= Head pops since the last
    // compaction.
    if (Head > Queue.size() / 2 && Head >= 64) {
      Queue.erase(Queue.begin(), Queue.begin() + Head);
      Head = 0;
    }
    BlockId B = Queue[Head++];
    OnList[B] = false;
    ++R.Stats.NodeVisits;

    if (Dir == Direction::Forward) {
      if (B != BoundaryBlock) {
        BitVector NewIn(Universe, Neutral);
        for (BlockId P : Fn.block(B).preds()) {
          if (M == Meet::Intersection)
            NewIn &= R.Out[P];
          else
            NewIn |= R.Out[P];
        }
        R.In[B] = std::move(NewIn);
      }
      BitVector NewOut = R.In[B];
      NewOut.andNot(Transfers[B].Kill);
      NewOut |= Transfers[B].Gen;
      if (NewOut != R.Out[B]) {
        R.Out[B] = std::move(NewOut);
        for (BlockId S : Fn.block(B).succs())
          push(S);
      }
    } else {
      if (B != BoundaryBlock) {
        BitVector NewOut(Universe, Neutral);
        for (BlockId S : Fn.block(B).succs()) {
          if (M == Meet::Intersection)
            NewOut &= R.In[S];
          else
            NewOut |= R.In[S];
        }
        R.Out[B] = std::move(NewOut);
      }
      BitVector NewIn = R.Out[B];
      NewIn.andNot(Transfers[B].Kill);
      NewIn |= Transfers[B].Gen;
      if (NewIn != R.In[B]) {
        R.In[B] = std::move(NewIn);
        for (BlockId P : Fn.block(B).preds())
          push(P);
      }
    }
  }

  R.Stats.WordOps = BitVectorOps::snapshot() - OpsBefore;
  Stats::bump("dataflow.solves");
  Stats::bump("dataflow.worklist.solves");
  Stats::bump("dataflow.node_visits", R.Stats.NodeVisits);
  Stats::bump("dataflow.word_ops", R.Stats.WordOps);
  const uint64_t SimdOps = BitVectorOps::snapshotSimd() - SimdOpsBefore;
  Stats::bump("dataflow.word_ops_simd", SimdOps);
  Stats::bump("dataflow.word_ops_scalar", R.Stats.WordOps - SimdOps);
  return R;
}

namespace {

/// Priority worklist over order positions 0..N-1: one pending bit per
/// position, popped lowest-first.  Because a push below the cursor pulls
/// the cursor back, the invariant "no pending bit < Cursor" holds and a
/// pop is a find-first-set scan from the cursor.
class PriorityWorklist {
public:
  PriorityWorklist() = default;

  /// Re-targets the worklist at \p N priorities, reusing the pending-bit
  /// buffer (assign keeps capacity).
  void reset(size_t N) {
    Pending.assign(bitwords::wordsFor(N), 0);
    this->N = N;
    Cursor = 0;
  }

  void seedAll() {
    for (uint64_t &W : Pending)
      W = ~uint64_t(0);
    if (N % 64 != 0 && !Pending.empty())
      Pending.back() &= bitwords::topWordMask(N);
    Cursor = 0;
  }

  void push(size_t Prio) {
    Pending[Prio / 64] |= uint64_t(1) << (Prio % 64);
    if (Prio < Cursor)
      Cursor = Prio;
  }

  /// Pops the lowest pending priority, or npos when drained.  The cursor
  /// invariant keeps every bit below Cursor clear, so whole-word scans
  /// suffice.
  size_t pop() {
    size_t WordIdx = Cursor / 64;
    while (WordIdx < Pending.size() && Pending[WordIdx] == 0)
      ++WordIdx;
    if (WordIdx == Pending.size())
      return npos;
    const uint64_t Word = Pending[WordIdx];
    const size_t Prio = WordIdx * 64 + size_t(std::countr_zero(Word));
    Pending[WordIdx] = Word & (Word - 1); // clear lowest set bit
    Cursor = Prio + 1;
    return Prio;
  }

  static constexpr size_t npos = ~size_t(0);

private:
  std::vector<uint64_t> Pending;
  size_t N = 0;
  size_t Cursor = 0;
};

/// The sparse solve, writing into caller-owned (reused) result rows.
void solveGenKillSparseInto(const Function &Fn, Direction Dir, Meet M,
                            const std::vector<GenKill> &Transfers,
                            const BitVector &Boundary, DataflowResult &R) {
  assert(Transfers.size() >= Fn.numBlocks() && "one transfer per block");
  const size_t Universe = Boundary.size();
  const size_t NumBlocks = Fn.numBlocks();
  const size_t WPR = bitwords::wordsFor(Universe);
  const uint64_t OpsBefore = BitVectorOps::snapshot();
  const uint64_t SimdOpsBefore = BitVectorOps::snapshotSimd();

  // Per-thread scratch, reused across solves: after the first solve of the
  // largest problem size, everything below is a pointer/length reset.
  thread_local FactArena Arena;
  thread_local std::vector<BlockId> Order;
  thread_local std::vector<uint32_t> Prio;
  thread_local PriorityWorklist WL;
  thread_local std::vector<const uint64_t *> MeetPtrs;

  Arena.begin(2 * NumBlocks * WPR);
  BitMatrix In = Arena.allocMatrix(NumBlocks, Universe);
  BitMatrix Out = Arena.allocMatrix(NumBlocks, Universe);

  const bool Neutral = (M == Meet::Intersection);
  const bool Fwd = (Dir == Direction::Forward);
  const BlockId BoundaryBlock = Fwd ? Fn.entry() : Fn.exit();

  In.fillNeutral(Neutral);
  Out.fillNeutral(Neutral);

  if (Fwd)
    reversePostOrderInto(Fn, Order);
  else
    postOrderInto(Fn, Order);
  orderIndexInto(Fn, Order, Prio);
  if (Fwd)
    In.row(BoundaryBlock).copyFrom(Boundary);
  else
    Out.row(BoundaryBlock).copyFrom(Boundary);

  R.Stats = SolverStats{};

  WL.reset(Order.size());
  // Seed every reachable block, in priority order; unreachable blocks keep
  // the neutral initialization, matching the dense solvers.
  WL.seedAll();

  const bool Intersect = (M == Meet::Intersection);
  BitMatrix &Src = Fwd ? Out : In;  // transfer writes these rows
  BitMatrix &Dst = Fwd ? In : Out;  // meet recomputed into these rows
  for (size_t P; (P = WL.pop()) != PriorityWorklist::npos;) {
    const BlockId B = Order[P];
    ++R.Stats.NodeVisits;

    // Recompute the full meet over B's inputs and apply the transfer in one
    // fused pass over contiguous rows (bitwords::meetTransferChanged): each
    // cache line of the meet row, transfer row, gen and kill is touched
    // exactly once per pop.  Unreachable inputs hold the neutral element
    // forever, so meeting over all inputs matches the dense solvers
    // bit-for-bit.  On change, downstream blocks are pushed and recompute
    // their own meet when popped.
    bool Changed;
    if (B == BoundaryBlock) {
      // The boundary row is pinned; only the transfer runs.
      Changed = bitwords::transferChanged(Src.rowWords(B), Dst.rowWords(B),
                                          Transfers[B].Gen.words(),
                                          Transfers[B].Kill.words(), WPR);
    } else {
      const auto &Ins = Fwd ? Fn.block(B).preds() : Fn.block(B).succs();
      MeetPtrs.clear();
      for (BlockId Ib : Ins)
        MeetPtrs.push_back(Src.rowWords(Ib));
      if (MeetPtrs.empty()) {
        // No meet inputs (e.g. a backward solve over a block with no
        // successors): the meet stays neutral, like the dense solvers.
        Dst.row(B).fillNeutral(Neutral);
        Changed = bitwords::transferChanged(Src.rowWords(B), Dst.rowWords(B),
                                            Transfers[B].Gen.words(),
                                            Transfers[B].Kill.words(), WPR);
      } else {
        Changed = bitwords::meetTransferChanged(
            Dst.rowWords(B), Src.rowWords(B), MeetPtrs.data(),
            MeetPtrs.size(), Intersect, Transfers[B].Gen.words(),
            Transfers[B].Kill.words(), WPR);
      }
    }
    if (Changed) {
      const auto &Outs = Fwd ? Fn.block(B).succs() : Fn.block(B).preds();
      for (BlockId Nb : Outs) {
        if (Prio[Nb] == ~uint32_t(0))
          continue; // unreachable in iteration order: keep neutral facts
        WL.push(Prio[Nb]);
      }
    }
  }

  // Materialize the arena rows into the caller-owned (reused) result rows:
  // reshape keeps each BitVector's word storage, then raw word copies.
  reshapeRows(R.In, NumBlocks, Universe);
  reshapeRows(R.Out, NumBlocks, Universe);
  for (size_t B = 0; B != NumBlocks; ++B) {
    bitwords::copy(R.In[B].words(), In.rowWords(BlockId(B)), WPR);
    bitwords::copy(R.Out[B].words(), Out.rowWords(BlockId(B)), WPR);
  }

  R.Stats.WordOps = BitVectorOps::snapshot() - OpsBefore;
  Stats::bump("dataflow.solves");
  Stats::bump("dataflow.sparse.solves");
  Stats::bump("dataflow.node_visits", R.Stats.NodeVisits);
  Stats::bump("dataflow.word_ops", R.Stats.WordOps);
  const uint64_t SimdOps = BitVectorOps::snapshotSimd() - SimdOpsBefore;
  Stats::bump("dataflow.word_ops_simd", SimdOps);
  Stats::bump("dataflow.word_ops_scalar", R.Stats.WordOps - SimdOps);
}

} // namespace

DataflowResult lcm::solveGenKillSparse(const Function &Fn, Direction Dir,
                                       Meet M,
                                       const std::vector<GenKill> &Transfers,
                                       const BitVector &Boundary) {
  DataflowResult R;
  solveGenKillSparseInto(Fn, Dir, M, Transfers, Boundary, R);
  return R;
}

DataflowResult lcm::solveGenKill(const Function &Fn, Direction Dir, Meet M,
                                 const std::vector<GenKill> &Transfers,
                                 const BitVector &Boundary,
                                 SolverStrategy S) {
  switch (S) {
  case SolverStrategy::RoundRobin:
    return solveGenKill(Fn, Dir, M, Transfers, Boundary);
  case SolverStrategy::Worklist:
    return solveGenKillWorklist(Fn, Dir, M, Transfers, Boundary);
  case SolverStrategy::Sparse:
    return solveGenKillSparse(Fn, Dir, M, Transfers, Boundary);
  }
  return solveGenKill(Fn, Dir, M, Transfers, Boundary);
}

void lcm::solveGenKillInto(const Function &Fn, Direction Dir, Meet M,
                           const std::vector<GenKill> &Transfers,
                           const BitVector &Boundary, SolverStrategy S,
                           DataflowResult &R) {
  switch (S) {
  case SolverStrategy::Sparse:
    solveGenKillSparseInto(Fn, Dir, M, Transfers, Boundary, R);
    return;
  case SolverStrategy::RoundRobin:
    R = solveGenKill(Fn, Dir, M, Transfers, Boundary);
    return;
  case SolverStrategy::Worklist:
    R = solveGenKillWorklist(Fn, Dir, M, Transfers, Boundary);
    return;
  }
  R = solveGenKill(Fn, Dir, M, Transfers, Boundary);
}
