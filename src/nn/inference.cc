// Tape-free inference kernels for the policy network's serving path.
//
// Every kernel computes the same sums in the same order as the forward of
// the corresponding autograd op, so at every row the caller reads an
// inference forward is bit-identical to an eval-mode autograd forward — the
// equivalence tests in tests/nn_inference_test.cc assert exact equality.
// One serving-only shortcut keeps the math smaller than training-grade code
// (see nn/inference.h): optional output-row restriction, used to evaluate
// every layer only on its receptive field. No kernel allocates: all
// outputs and intermediates are caller-owned InferenceWorkspace buffers.
#include "nn/inference.h"

#include <cmath>

#include "nn/layers.h"

namespace rlqvo {
namespace nn {

namespace {

inline bool RowActive(const std::vector<bool>* rows, size_t i) {
  return rows == nullptr || (*rows)[i];
}

}  // namespace

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out,
                const std::vector<bool>* out_rows) {
  RLQVO_CHECK_EQ(a.cols(), b.rows());
  RLQVO_DCHECK_EQ(out->rows(), a.rows());
  RLQVO_DCHECK_EQ(out->cols(), b.cols());
  // Register-blocked: a block of kBlock output columns lives in locals for
  // the whole k loop, so each output element is loaded and stored once
  // instead of once per nonzero a(i, k). Every element still sees the
  // autograd MatMul's exact operation sequence — out(i, j) += a(i, k) *
  // b(k, j) for ascending k, skipping a(i, k) == 0 — so the result is
  // bit-identical at every active row. Nothing fuses the multiply and add
  // into an FMA: GCC's ISO C++ mode (CMAKE_CXX_EXTENSIONS OFF) sets
  // -ffp-contract=off, and the baseline x86-64 target has no FMA. The zero
  // test skips whole rhs rows at non-edges of propagation matrices and at
  // post-ReLU zeros.
  constexpr size_t kBlock = 16;
  const size_t inner = a.cols();
  const size_t cols = b.cols();
  const double* __restrict b_data = b.data();
  for (size_t i = 0; i < a.rows(); ++i) {
    if (!RowActive(out_rows, i)) continue;
    // restrict: a, b and out are always distinct matrices here.
    double* __restrict out_row = out->data() + i * cols;
    const double* __restrict a_row = a.data() + i * inner;
    size_t j0 = 0;
    for (; j0 + kBlock <= cols; j0 += kBlock) {
      double acc[kBlock] = {};
      for (size_t t = 0; t < kBlock; ++t) acc[t] = out_row[j0 + t];
      for (size_t k = 0; k < inner; ++k) {
        const double aik = a_row[k];
        if (aik == 0.0) continue;
        const double* __restrict b_row = b_data + k * cols + j0;
        for (size_t t = 0; t < kBlock; ++t) acc[t] += aik * b_row[t];
      }
      for (size_t t = 0; t < kBlock; ++t) out_row[j0 + t] = acc[t];
    }
    // Leftover columns (fewer than kBlock): the same rule in one pass over
    // k, accumulating in place. One pass rather than one per column keeps
    // the zero test — a mispredicting branch on propagation matrices — at
    // one per coefficient on the narrow feature input.
    if (j0 == cols) continue;
    for (size_t k = 0; k < inner; ++k) {
      const double aik = a_row[k];
      if (aik == 0.0) continue;
      const double* __restrict b_row = b_data + k * cols;
      for (size_t j = j0; j < cols; ++j) out_row[j] += aik * b_row[j];
    }
  }
}

void AddRowBroadcastInPlace(Matrix* x, const Matrix& bias,
                            const std::vector<bool>* rows) {
  RLQVO_CHECK_EQ(bias.rows(), 1u);
  RLQVO_CHECK_EQ(bias.cols(), x->cols());
  const size_t cols = x->cols();
  const double* __restrict b = bias.data();
  for (size_t r = 0; r < x->rows(); ++r) {
    if (!RowActive(rows, r)) continue;
    double* __restrict row = x->data() + r * cols;
    for (size_t c = 0; c < cols; ++c) row[c] += b[c];
  }
}

void ReluInPlace(Matrix* x, const std::vector<bool>* rows) {
  const size_t cols = x->cols();
  for (size_t r = 0; r < x->rows(); ++r) {
    if (!RowActive(rows, r)) continue;
    double* __restrict row = x->data() + r * cols;
    // Branchless select: post-activation signs are data-dependent, so a
    // branch here mispredicts about half the time.
    for (size_t c = 0; c < cols; ++c) row[c] = row[c] < 0.0 ? 0.0 : row[c];
  }
}

void MaskedLogSoftmaxInto(const Matrix& scores, const std::vector<bool>& mask,
                          Matrix* out) {
  RLQVO_CHECK_EQ(scores.cols(), 1u);
  RLQVO_CHECK_EQ(scores.rows(), mask.size());
  RLQVO_DCHECK_EQ(out->rows(), scores.rows());
  double max_val = -1e300;
  bool any = false;
  for (size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) {
      max_val = std::max(max_val, scores.At(i, 0));
      any = true;
    }
  }
  RLQVO_CHECK(any) << "MaskedLogSoftmaxInto with empty mask";
  double denom = 0.0;
  for (size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) denom += std::exp(scores.At(i, 0) - max_val);
  }
  const double log_denom = std::log(denom) + max_val;
  for (size_t i = 0; i < mask.size(); ++i) {
    out->At(i, 0) = mask[i] ? scores.At(i, 0) - log_denom : kMaskedLogProb;
  }
}

void MaskedRowSoftmaxInto(const Matrix& scores, const Matrix& mask,
                          Matrix* out, const std::vector<bool>* out_rows) {
  RLQVO_CHECK(scores.SameShape(mask));
  RLQVO_DCHECK(out->SameShape(scores));
  for (size_t r = 0; r < scores.rows(); ++r) {
    if (!RowActive(out_rows, r)) continue;
    double max_val = -1e300;
    bool any = false;
    for (size_t c = 0; c < scores.cols(); ++c) {
      if (mask.At(r, c) != 0.0) {
        max_val = std::max(max_val, scores.At(r, c));
        any = true;
      }
    }
    if (!any) continue;  // row with no unmasked entries stays all-zero
    double denom = 0.0;
    for (size_t c = 0; c < scores.cols(); ++c) {
      if (mask.At(r, c) != 0.0) denom += std::exp(scores.At(r, c) - max_val);
    }
    for (size_t c = 0; c < scores.cols(); ++c) {
      if (mask.At(r, c) != 0.0) {
        out->At(r, c) = std::exp(scores.At(r, c) - max_val) / denom;
      }
    }
  }
}

// --- Layer forwards -------------------------------------------------------
//
// Scratch-slot usage is local to each call: slots are reshaped on entry and
// dead once the function returns, so layers can be chained freely. Within
// a layer, an intermediate that later rows mix across (e.g. GAT's h W) is
// computed for every row; rows of `h` outside the layer's receptive field
// hold unspecified values there, which the A+I-supported propagation never
// reads.

void Linear::ForwardInference(const Matrix& x, Matrix* out,
                              const std::vector<bool>* out_rows) const {
  MatMulInto(x, weight_.value(), out, out_rows);
  AddRowBroadcastInPlace(out, bias_.value(), out_rows);
}

void GcnConv::ForwardInference(const GraphTensors& g, const Matrix& h,
                               InferenceWorkspace* ws, Matrix* out,
                               const std::vector<bool>* out_rows) const {
  // H' = (D̃^-1/2 Ã D̃^-1/2 H) W + b. Output row i mixes only aggregate row
  // i, so the row restriction applies to the propagation too.
  Matrix* agg = ws->Scratch(0, h.rows(), h.cols());
  MatMulInto(g.norm_adjacency.value(), h, agg, out_rows);
  linear_.ForwardInference(*agg, out, out_rows);
}

void MlpConv::ForwardInference(const GraphTensors&, const Matrix& h,
                               InferenceWorkspace*, Matrix* out,
                               const std::vector<bool>* out_rows) const {
  linear_.ForwardInference(h, out, out_rows);
}

void SageConv::ForwardInference(const GraphTensors& g, const Matrix& h,
                                InferenceWorkspace* ws, Matrix* out,
                                const std::vector<bool>* out_rows) const {
  // H' = H W_self + (D^-1 A H) W_neigh + b.
  MatMulInto(h, w_self_.value(), out, out_rows);
  Matrix* agg = ws->Scratch(0, h.rows(), h.cols());
  MatMulInto(g.mean_adjacency.value(), h, agg, out_rows);
  Matrix* neigh = ws->Scratch(1, h.rows(), w_neigh_.cols());
  MatMulInto(*agg, w_neigh_.value(), neigh, out_rows);
  out->AddInPlace(*neigh);
  AddRowBroadcastInPlace(out, bias_.value(), out_rows);
}

void GatConv::ForwardInference(const GraphTensors& g, const Matrix& h,
                               InferenceWorkspace* ws, Matrix* out,
                               const std::vector<bool>* out_rows) const {
  const size_t n = h.rows();
  const size_t d = weight_.cols();
  // Attention output row i mixes every row of s = h W, so s and alpha_dst
  // must be computed in full; only the per-row e/attention/mix work is
  // restricted.
  Matrix* s = ws->Scratch(0, n, d);
  MatMulInto(h, weight_.value(), s);
  Matrix* alpha_src = ws->Scratch(1, n, 1);
  Matrix* alpha_dst = ws->Scratch(2, n, 1);
  MatMulInto(*s, att_src_.value(), alpha_src, out_rows);
  MatMulInto(*s, att_dst_.value(), alpha_dst);
  // E(i, j) = alpha_src_i + alpha_dst_j, LeakyReLU'd then row-softmaxed
  // over A + I. The autograd path builds E with ones-vector outer products
  // whose entries are exactly alpha_src_i and alpha_dst_j, so summing them
  // directly is bit-identical.
  Matrix* e = ws->Scratch(3, n, n);
  for (size_t i = 0; i < n; ++i) {
    if (!RowActive(out_rows, i)) continue;
    for (size_t j = 0; j < n; ++j) {
      const double v = alpha_src->At(i, 0) + alpha_dst->At(j, 0);
      e->At(i, j) = v < 0.0 ? v * 0.2 : v;  // LeakyReLU(0.2)
    }
  }
  // Reuse slot 1 (alpha_src is dead) for the attention matrix; inactive
  // rows are skipped end to end and stay all-zero.
  Matrix* attention = ws->Scratch(1, n, n);
  MaskedRowSoftmaxInto(*e, g.attention_mask, attention, out_rows);
  MatMulInto(*attention, *s, out, out_rows);
  AddRowBroadcastInPlace(out, bias_.value(), out_rows);
}

void GraphNNConv::ForwardInference(const GraphTensors& g, const Matrix& h,
                                   InferenceWorkspace* ws, Matrix* out,
                                   const std::vector<bool>* out_rows) const {
  // H' = H W1 + A H W2 + b.
  MatMulInto(h, w_root_.value(), out, out_rows);
  Matrix* agg = ws->Scratch(0, h.rows(), h.cols());
  MatMulInto(g.adjacency.value(), h, agg, out_rows);
  Matrix* neigh = ws->Scratch(1, h.rows(), w_neigh_.cols());
  MatMulInto(*agg, w_neigh_.value(), neigh, out_rows);
  out->AddInPlace(*neigh);
  AddRowBroadcastInPlace(out, bias_.value(), out_rows);
}

void LEConv::ForwardInference(const GraphTensors& g, const Matrix& h,
                              InferenceWorkspace* ws, Matrix* out,
                              const std::vector<bool>* out_rows) const {
  // H' = H W1 + diag(d) H W2 - A H W3 + b.
  MatMulInto(h, w1_.value(), out, out_rows);
  Matrix* hw = ws->Scratch(0, h.rows(), w2_.cols());
  MatMulInto(h, w2_.value(), hw, out_rows);  // diag: row i needs only row i
  Matrix* part = ws->Scratch(1, h.rows(), w2_.cols());
  MatMulInto(g.degree_diag.value(), *hw, part, out_rows);
  out->AddInPlace(*part);
  Matrix* hw3 = ws->Scratch(2, h.rows(), w3_.cols());
  MatMulInto(h, w3_.value(), hw3);  // adjacency mixes rows: compute in full
  Matrix* part3 = ws->Scratch(3, h.rows(), w3_.cols());
  MatMulInto(g.adjacency.value(), *hw3, part3, out_rows);
  for (size_t i = 0; i < out->values().size(); ++i) {
    out->values()[i] -= part3->values()[i];
  }
  AddRowBroadcastInPlace(out, bias_.value(), out_rows);
}

}  // namespace nn
}  // namespace rlqvo
