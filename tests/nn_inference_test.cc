// Tape-free inference path vs the autograd forward: the serving kernels of
// nn/inference.{h,cc} and PolicyNetwork::ForwardInference must produce
// scores bit-identical to the eval-mode (training=false) autograd forward
// across every backbone, layer depth, hidden width, mask shape and ordering
// step — and must stop allocating once the workspace buffers reach their
// high-water mark. Equality is exact (EXPECT_EQ on doubles), not within a
// tolerance: the kernels repeat the autograd ops' floating-point operations
// one for one, and the receptive-field row restriction only drops rows no
// score reads.
#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/generators.h"
#include "gtest/gtest.h"
#include "nn/inference.h"
#include "rl/env.h"
#include "rl/policy_network.h"
#include "test_util.h"

namespace rlqvo {
namespace {

using testing_util::RandomData;
using testing_util::RandomQuery;

/// All backbones the policy supports (the paper's ablation set).
const std::vector<nn::Backbone> kBackbones = {
    nn::Backbone::kGcn,  nn::Backbone::kMlp,     nn::Backbone::kGat,
    nn::Backbone::kSage, nn::Backbone::kGraphNN, nn::Backbone::kLEConv};

/// Asserts inference == autograd (eval mode), bit for bit, on every
/// decision step of an ordering episode driven by the autograd path's
/// argmax. Returns the number of decision steps whose action space has a
/// closed neighbourhood smaller than V(q) — the steps on which a 2-layer
/// forward's first layer computes a strict subset of the rows.
int ExpectEpisodeEquivalence(const PolicyNetwork& policy,
                             nn::InferenceWorkspace* ws, const Graph& query,
                             const Graph& data) {
  OrderingEnv env(&query, &data, FeatureConfig{});
  const uint32_t n = query.num_vertices();
  int restricted_steps = 0;
  while (!env.Done()) {
    const VertexId sole = env.SoleAction();
    if (sole != kInvalidVertex) {
      env.Step(sole);
      continue;
    }
    const auto autograd = policy.Forward(env.tensors(), env.FeaturesView(),
                                         env.ActionMask(), /*training=*/false,
                                         nullptr);
    const auto inference = policy.ForwardInference(
        ws, env.tensors(), env.FeaturesView(), env.ActionMask());
    EXPECT_EQ(inference.raw_scores->rows(), n);
    EXPECT_EQ(inference.log_probs->rows(), n);
    if (inference.log_probs->rows() != n) return restricted_steps;
    std::vector<bool> field(n, false);
    VertexId argmax = kInvalidVertex;
    double best = -1e300;
    for (VertexId u = 0; u < n; ++u) {
      // log_probs are valid (and must agree) everywhere; raw scores only at
      // action-space rows — the serving head computes nothing else.
      EXPECT_EQ(inference.log_probs->At(u, 0),
                autograd.log_probs.value().At(u, 0))
          << "vertex " << u;
      if (!env.ActionMask()[u]) continue;
      EXPECT_EQ(inference.raw_scores->At(u, 0),
                autograd.raw_scores.value().At(u, 0))
          << "vertex " << u;
      for (VertexId w = 0; w < n; ++w) {
        if (env.tensors().attention_mask.At(u, w) != 0.0) field[w] = true;
      }
      if (autograd.log_probs.value().At(u, 0) > best) {
        best = autograd.log_probs.value().At(u, 0);
        argmax = u;
      }
    }
    EXPECT_NE(argmax, kInvalidVertex);
    if (argmax == kInvalidVertex) return restricted_steps;
    if (std::count(field.begin(), field.end(), true) < n) ++restricted_steps;
    env.Step(argmax);
  }
  return restricted_steps;
}

TEST(InferenceEquivalence, AllBackbonesRandomizedQueries) {
  const Graph data = RandomData(/*seed=*/11, /*n=*/80, /*avg_degree=*/5.0,
                                /*labels=*/4);
  for (nn::Backbone backbone : kBackbones) {
    PolicyConfig config;
    config.backbone = backbone;
    config.hidden_dim = 16;
    config.init_seed = 5 + static_cast<uint64_t>(backbone);
    PolicyNetwork policy(config);
    nn::InferenceWorkspace ws;
    for (uint64_t seed = 0; seed < 4; ++seed) {
      const Graph query =
          RandomQuery(data, 100 + seed, /*size=*/4 + 3 * (seed % 3));
      SCOPED_TRACE(nn::BackboneName(backbone) + " seed " +
                   std::to_string(seed));
      ExpectEpisodeEquivalence(policy, &ws, query, data);
    }
  }
}

TEST(InferenceEquivalence, DeeperStacksAndWiderHidden) {
  const Graph data = RandomData(/*seed=*/13, /*n=*/70);
  for (int layers : {1, 3}) {
    for (int hidden : {8, 48}) {
      PolicyConfig config;
      config.num_gnn_layers = layers;
      config.hidden_dim = hidden;
      PolicyNetwork policy(config);
      nn::InferenceWorkspace ws;
      const Graph query = RandomQuery(data, 31 * layers + hidden, 8);
      SCOPED_TRACE("layers=" + std::to_string(layers) +
                   " hidden=" + std::to_string(hidden));
      ExpectEpisodeEquivalence(policy, &ws, query, data);
    }
  }
}

TEST(InferenceEquivalence, DefaultConfigLargeQueryRestrictsEveryLayer) {
  // The paper's configuration (GCN, 2 layers, hidden 64) at |V(q)| = 32:
  // the first layer computes only the closed neighbourhood of the action
  // space, which must be a strict subset of V(q) on some steps.
  const Graph data = RandomData(/*seed=*/29, /*n=*/400, /*avg_degree=*/4.0);
  PolicyNetwork policy{PolicyConfig{}};
  nn::InferenceWorkspace ws;
  int restricted_steps = 0;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    const Graph query = RandomQuery(data, 61 + seed, /*size=*/32);
    SCOPED_TRACE("seed " + std::to_string(seed));
    restricted_steps += ExpectEpisodeEquivalence(policy, &ws, query, data);
  }
  EXPECT_GT(restricted_steps, 0);
}

TEST(InferenceEquivalence, HiddenWidthWithColumnRemainder) {
  // hidden_dim 20 = one 16-column register block + 4 leftover columns.
  const Graph data = RandomData(/*seed=*/31, /*n=*/120);
  PolicyConfig config;
  config.hidden_dim = 20;
  PolicyNetwork policy(config);
  nn::InferenceWorkspace ws;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    const Graph query = RandomQuery(data, 71 + seed, /*size=*/12);
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectEpisodeEquivalence(policy, &ws, query, data);
  }
}

TEST(InferenceEquivalence, FourLayerStack) {
  // Four layers widen the receptive field hop by hop back to the input.
  const Graph data = RandomData(/*seed=*/37, /*n=*/200);
  PolicyConfig config;
  config.num_gnn_layers = 4;
  PolicyNetwork policy(config);
  nn::InferenceWorkspace ws;
  for (uint64_t seed = 0; seed < 2; ++seed) {
    const Graph query = RandomQuery(data, 81 + seed, /*size=*/16);
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectEpisodeEquivalence(policy, &ws, query, data);
  }
}

TEST(InferenceEquivalence, AllBackbonesOnDirectedQuery) {
  LabelConfig labels;
  labels.num_labels = 3;
  labels.zipf_exponent = 0.5;
  labels.num_edge_labels = 2;
  labels.directed = true;
  const Graph data =
      GenerateErdosRenyi(150, 4.0, labels, /*seed=*/41).ValueOrDie();
  const Graph query = RandomQuery(data, 43, /*size=*/12);
  ASSERT_TRUE(query.directed());
  for (nn::Backbone backbone : kBackbones) {
    PolicyConfig config;
    config.backbone = backbone;
    config.init_seed = 9 + static_cast<uint64_t>(backbone);
    PolicyNetwork policy(config);
    nn::InferenceWorkspace ws;
    SCOPED_TRACE(nn::BackboneName(backbone));
    ExpectEpisodeEquivalence(policy, &ws, query, data);
  }
}

TEST(InferenceEquivalence, DropoutConfigIsInertAtInference) {
  // Dropout only applies in training mode; a policy configured with heavy
  // dropout must still match the eval-mode forward exactly.
  PolicyConfig config;
  config.dropout = 0.9;
  PolicyNetwork policy(config);
  nn::InferenceWorkspace ws;
  const Graph data = RandomData(/*seed=*/17, /*n=*/50);
  const Graph query = RandomQuery(data, 23, 6);
  ExpectEpisodeEquivalence(policy, &ws, query, data);
}

TEST(InferenceWorkspace, SteadyStateIsAllocationFree) {
  PolicyConfig config;
  config.backbone = nn::Backbone::kGat;  // exercises the (n, n) scratch too
  PolicyNetwork policy(config);
  nn::InferenceWorkspace ws;
  const Graph data = RandomData(/*seed=*/19, /*n=*/90);
  // Warm up at the largest query size the steady state will see.
  const Graph big = RandomQuery(data, 41, 12);
  ExpectEpisodeEquivalence(policy, &ws, big, data);
  const uint64_t grows_after_warmup = ws.buffer_grows();
  EXPECT_GT(grows_after_warmup, 0u);
  // Steady state: repeated inference at or below the high-water mark must
  // never grow a buffer again.
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const Graph query = RandomQuery(data, 50 + seed, 4 + seed % 9);
    ExpectEpisodeEquivalence(policy, &ws, query, data);
  }
  EXPECT_EQ(ws.buffer_grows(), grows_after_warmup);
}

TEST(InferenceKernels, MatMulIntoMatchesAllocatingMatMul) {
  // Widths below, at and past the 16-column register block, with zero lhs
  // coefficients (skipped terms) and a row restriction.
  Rng rng(3);
  for (size_t cols : {1u, 9u, 16u, 37u}) {
    nn::Matrix a = nn::Matrix::Randn(7, 5, 1.0, &rng);
    a.At(0, 1) = a.At(3, 0) = a.At(3, 4) = 0.0;
    const nn::Matrix b = nn::Matrix::Randn(5, cols, 1.0, &rng);
    const nn::Matrix expected = nn::MatMul(a, b);
    const std::vector<bool> rows = {true, false, true, true,
                                    false, true, false};
    nn::InferenceWorkspace ws;
    nn::Matrix* full = ws.Scratch(0, 7, cols);
    nn::MatMulInto(a, b, full);
    nn::Matrix* masked = ws.Scratch(1, 7, cols);
    nn::MatMulInto(a, b, masked, &rows);
    for (size_t r = 0; r < expected.rows(); ++r) {
      for (size_t c = 0; c < expected.cols(); ++c) {
        EXPECT_EQ(full->At(r, c), expected.At(r, c))
            << "cols=" << cols << " (" << r << ", " << c << ")";
        if (rows[r]) {
          EXPECT_EQ(masked->At(r, c), expected.At(r, c));
        }
      }
    }
  }
}

TEST(InferenceKernels, MaskedLogSoftmaxMatchesAutogradOp) {
  Rng rng(5);
  const nn::Matrix scores = nn::Matrix::Randn(9, 1, 2.0, &rng);
  std::vector<bool> mask(9, false);
  mask[1] = mask[4] = mask[8] = true;
  const nn::Var autograd =
      nn::MaskedLogSoftmax(nn::Var::Constant(scores), mask);
  nn::InferenceWorkspace ws;
  nn::Matrix* out = ws.Scratch(0, 9, 1);
  nn::MaskedLogSoftmaxInto(scores, mask, out);
  for (size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(out->At(i, 0), autograd.value().At(i, 0));
  }
}

}  // namespace
}  // namespace rlqvo
