#include <algorithm>
#include <map>
#include <set>

#include "gtest/gtest.h"
#include "src/data/molecule.h"
#include "src/data/protein.h"
#include "src/data/registry.h"
#include "src/data/social.h"
#include "src/data/splits.h"
#include "src/data/superpixel.h"
#include "src/data/triangles.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace oodgnn {
namespace {

int MaxNodes(const GraphDataset& ds, const std::vector<size_t>& split) {
  int max_nodes = 0;
  for (size_t idx : split) {
    max_nodes = std::max(max_nodes, ds.graphs[idx].num_nodes());
  }
  return max_nodes;
}

// ---------------------------------------------------------------------------
// Split helpers.
// ---------------------------------------------------------------------------

TEST(SplitsTest, ScaffoldSplitGroupsAreAtomic) {
  GraphDataset ds;
  ds.num_tasks = 1;
  ds.feature_dim = 1;
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    Graph g(2, 1);
    g.label = 0;
    g.scaffold_id = rng.UniformInt(0, 19);
    ds.graphs.push_back(std::move(g));
  }
  ScaffoldSplit(&ds, 0.7, 0.15);
  auto scaffolds_of = [&](const std::vector<size_t>& split) {
    std::set<int64_t> ids;
    for (size_t idx : split) ids.insert(ds.graphs[idx].scaffold_id);
    return ids;
  };
  std::set<int64_t> train_ids = scaffolds_of(ds.train_idx);
  std::set<int64_t> test_ids = scaffolds_of(ds.test_idx);
  for (int64_t id : test_ids) {
    EXPECT_EQ(train_ids.count(id), 0u)
        << "scaffold " << id << " leaks into both splits";
  }
  ds.Validate();
}

TEST(SplitsTest, ScaffoldSplitPutsCommonScaffoldsInTrain) {
  GraphDataset ds;
  ds.num_tasks = 1;
  ds.feature_dim = 1;
  // Scaffold 0: 80 graphs, scaffold 1: 15, scaffold 2: 5.
  for (int s = 0; s < 3; ++s) {
    const int count = s == 0 ? 80 : (s == 1 ? 15 : 5);
    for (int i = 0; i < count; ++i) {
      Graph g(2, 1);
      g.label = 0;
      g.scaffold_id = s;
      ds.graphs.push_back(std::move(g));
    }
  }
  ScaffoldSplit(&ds, 0.8, 0.1);
  EXPECT_EQ(ds.graphs[ds.train_idx[0]].scaffold_id, 0);
  EXPECT_EQ(ds.graphs[ds.test_idx[0]].scaffold_id, 2);
}

// ---------------------------------------------------------------------------
// TRIANGLES.
// ---------------------------------------------------------------------------

TrianglesConfig SmallTriangles() {
  TrianglesConfig config;
  config.num_train = 60;
  config.num_valid = 15;
  config.num_test = 30;
  return config;
}

TEST(TrianglesTest, LabelsMatchExactTriangleCounts) {
  GraphDataset ds = MakeTrianglesDataset(SmallTriangles(), 5);
  for (const Graph& g : ds.graphs) {
    EXPECT_EQ(CountTriangles(g), g.label + 1);
  }
}

TEST(TrianglesTest, SizeRangesPerSplit) {
  TrianglesConfig config = SmallTriangles();
  GraphDataset ds = MakeTrianglesDataset(config, 6);
  for (size_t idx : ds.train_idx) {
    EXPECT_LE(ds.graphs[idx].num_nodes(), config.train_max_nodes);
  }
  EXPECT_LE(MaxNodes(ds, ds.test_idx), config.test_max_nodes);
  // The OOD test split actually contains larger graphs than training.
  EXPECT_GT(MaxNodes(ds, ds.test_idx), config.train_max_nodes);
}

TEST(TrianglesTest, DegreeFeaturesAreOneHot) {
  GraphDataset ds = MakeTrianglesDataset(SmallTriangles(), 7);
  const Graph& g = ds.graphs[0];
  for (int v = 0; v < g.num_nodes(); ++v) {
    float row_sum = 0.f;
    for (int c = 0; c < g.feature_dim(); ++c) row_sum += g.x.at(v, c);
    EXPECT_FLOAT_EQ(row_sum, 1.f);
  }
}

TEST(TrianglesTest, DeterministicInSeed) {
  GraphDataset a = MakeTrianglesDataset(SmallTriangles(), 8);
  GraphDataset b = MakeTrianglesDataset(SmallTriangles(), 8);
  ASSERT_EQ(a.graphs.size(), b.graphs.size());
  for (size_t i = 0; i < a.graphs.size(); ++i) {
    EXPECT_EQ(a.graphs[i].label, b.graphs[i].label);
    EXPECT_EQ(a.graphs[i].num_edges(), b.graphs[i].num_edges());
  }
}

TEST(TrianglesTest, CoversAllClasses) {
  GraphDataset ds = MakeTrianglesDataset(SmallTriangles(), 9);
  std::set<int> labels;
  for (const Graph& g : ds.graphs) labels.insert(g.label);
  EXPECT_GE(labels.size(), 8u);  // Nearly all of the 10 classes.
}

// ---------------------------------------------------------------------------
// MNIST-75SP substitute.
// ---------------------------------------------------------------------------

SuperpixelConfig SmallSuperpixel() {
  SuperpixelConfig config;
  config.num_train = 30;
  config.num_valid = 10;
  config.num_test = 10;
  return config;
}

TEST(SuperpixelTest, RenderedDigitsAreNonTrivial) {
  Rng rng(10);
  for (int digit = 0; digit < 10; ++digit) {
    std::vector<float> image =
        superpixel_internal::RenderDigit(digit, 28, &rng);
    double total = 0.0;
    for (float v : image) {
      EXPECT_GE(v, 0.f);
      EXPECT_LE(v, 1.f);
      total += v;
    }
    EXPECT_GT(total, 5.0) << "digit " << digit << " rendered empty";
    EXPECT_LT(total, 28.0 * 28.0 * 0.5) << "digit " << digit << " blob";
  }
}

TEST(SuperpixelTest, SegmentationCoversImage) {
  Rng rng(11);
  std::vector<float> image =
      superpixel_internal::RenderDigit(3, 28, &rng);
  int clusters = 0;
  std::vector<int> assignment =
      superpixel_internal::SlicSegment(image, 28, 75, &clusters);
  EXPECT_GT(clusters, 10);
  EXPECT_LE(clusters, 75);
  for (int a : assignment) {
    EXPECT_GE(a, 0);
    EXPECT_LT(a, clusters);
  }
}

TEST(SuperpixelTest, DatasetShapeAndSplits) {
  GraphDataset ds = MakeSuperpixelMnistDataset(SmallSuperpixel(), 12);
  EXPECT_EQ(ds.feature_dim, kSuperpixelFeatureDim);
  EXPECT_EQ(ds.test_idx.size(), 10u);   // Test(noise).
  EXPECT_EQ(ds.test2_idx.size(), 10u);  // Test(color).
  EXPECT_EQ(ds.test2_name, "Test(color)");
  for (const Graph& g : ds.graphs) {
    EXPECT_LE(g.num_nodes(), 75);
    EXPECT_GT(g.num_nodes(), 5);
  }
}

TEST(SuperpixelTest, TrainChannelsAreGrayscaleTestsAreNot) {
  GraphDataset ds = MakeSuperpixelMnistDataset(SmallSuperpixel(), 13);
  const Graph& train_graph = ds.graphs[ds.train_idx[0]];
  for (int v = 0; v < train_graph.num_nodes(); ++v) {
    EXPECT_FLOAT_EQ(train_graph.x.at(v, 0), train_graph.x.at(v, 1));
    EXPECT_FLOAT_EQ(train_graph.x.at(v, 1), train_graph.x.at(v, 2));
  }
  // Test(noise) stays grayscale (same noise on all channels).
  const Graph& noise_graph = ds.graphs[ds.test_idx[0]];
  for (int v = 0; v < noise_graph.num_nodes(); ++v) {
    EXPECT_FLOAT_EQ(noise_graph.x.at(v, 0), noise_graph.x.at(v, 1));
  }
  // Test(color) has independent channels.
  const Graph& color_graph = ds.graphs[ds.test2_idx[0]];
  bool channels_differ = false;
  for (int v = 0; v < color_graph.num_nodes(); ++v) {
    if (color_graph.x.at(v, 0) != color_graph.x.at(v, 1)) {
      channels_differ = true;
    }
  }
  EXPECT_TRUE(channels_differ);
}

// ---------------------------------------------------------------------------
// COLLAB substitute.
// ---------------------------------------------------------------------------

TEST(CollabTest, EgoIsConnectedToEveryone) {
  CollabConfig config;
  config.num_train = 12;
  config.num_valid = 3;
  config.num_test = 6;
  GraphDataset ds = MakeCollabDataset(config, 14);
  for (const Graph& g : ds.graphs) {
    std::set<int> ego_neighbors;
    for (size_t e = 0; e < g.edge_src.size(); ++e) {
      if (g.edge_src[e] == 0) ego_neighbors.insert(g.edge_dst[e]);
    }
    EXPECT_EQ(static_cast<int>(ego_neighbors.size()), g.num_nodes() - 1);
  }
}

TEST(CollabTest, FieldsHaveDistinctDensities) {
  CollabConfig config;
  config.num_train = 60;
  config.num_valid = 3;
  config.num_test = 6;
  GraphDataset ds = MakeCollabDataset(config, 15);
  std::map<int, double> density_by_label;
  std::map<int, int> count_by_label;
  for (size_t idx : ds.train_idx) {
    const Graph& g = ds.graphs[idx];
    density_by_label[g.label] +=
        static_cast<double>(g.num_edges()) / g.num_nodes();
    ++count_by_label[g.label];
  }
  for (auto& [label, total] : density_by_label) {
    total /= count_by_label[label];
  }
  // HEP (label 0, big cliques) is denser than Astro (label 2).
  EXPECT_GT(density_by_label[0], density_by_label[2]);
}

// ---------------------------------------------------------------------------
// Protein substitutes.
// ---------------------------------------------------------------------------

TEST(ProteinTest, SplitSizeRanges) {
  ProteinConfig config = Proteins25Config();
  config.num_train = 40;
  config.num_valid = 10;
  config.num_test = 40;
  GraphDataset ds = MakeProteinDataset(config, 16);
  for (size_t idx : ds.train_idx) {
    EXPECT_LE(ds.graphs[idx].num_nodes(), config.train_max_nodes);
  }
  for (size_t idx : ds.test_idx) {
    EXPECT_GE(ds.graphs[idx].num_nodes(), config.test_min_nodes);
  }
}

TEST(ProteinTest, TrainSizesCorrelateWithLabel) {
  ProteinConfig config = Proteins25Config();
  config.num_train = 200;
  config.num_valid = 10;
  config.num_test = 10;
  config.size_label_correlation = 0.8;
  GraphDataset ds = MakeProteinDataset(config, 17);
  double mean_size[2] = {0, 0};
  int count[2] = {0, 0};
  for (size_t idx : ds.train_idx) {
    const Graph& g = ds.graphs[idx];
    mean_size[g.label] += g.num_nodes();
    ++count[g.label];
  }
  EXPECT_GT(mean_size[1] / count[1], mean_size[0] / count[0] + 2.0);
}

TEST(ProteinTest, EnzymesAreTriangleRicher) {
  ProteinConfig config = Proteins25Config();
  config.num_train = 60;
  config.num_valid = 10;
  config.num_test = 10;
  config.size_label_correlation = 0.0;  // Isolate the motif signal.
  GraphDataset ds = MakeProteinDataset(config, 18);
  double triangles[2] = {0, 0};
  int count[2] = {0, 0};
  for (size_t idx : ds.train_idx) {
    const Graph& g = ds.graphs[idx];
    triangles[g.label] += static_cast<double>(CountTriangles(g));
    ++count[g.label];
  }
  EXPECT_GT(triangles[1] / count[1], triangles[0] / count[0]);
}

TEST(ProteinTest, DdConfigsMatchPaperRanges) {
  EXPECT_EQ(Dd200Config().train_max_nodes, 200);
  EXPECT_EQ(Dd200Config().test_min_nodes, 201);
  EXPECT_EQ(Dd300Config().train_max_nodes, 300);
  EXPECT_EQ(Dd300Config().test_min_nodes, 30);  // Full-range test.
}

// ---------------------------------------------------------------------------
// Molecule substitutes.
// ---------------------------------------------------------------------------

MoleculeDatasetSpec SmallMolecules(TaskType type = TaskType::kBinary) {
  MoleculeDatasetSpec spec = GetOgbMoleculeSpec("BACE", 0.5);
  spec.task_type = type;
  return spec;
}

TEST(MoleculeTest, FeatureRowsAreValid) {
  GraphDataset ds = MakeMoleculeDataset(SmallMolecules(), 19);
  for (const Graph& g : ds.graphs) {
    for (int v = 0; v < g.num_nodes(); ++v) {
      float type_sum = 0.f;
      for (int c = 0; c < 8; ++c) type_sum += g.x.at(v, c);
      EXPECT_FLOAT_EQ(type_sum, 1.f);  // One-hot atom type.
      float degree_sum = 0.f;
      for (int c = 8; c < 12; ++c) degree_sum += g.x.at(v, c);
      EXPECT_FLOAT_EQ(degree_sum, 1.f);  // One-hot degree bucket.
    }
  }
}

TEST(MoleculeTest, MoleculesAreConnected) {
  GraphDataset ds = MakeMoleculeDataset(SmallMolecules(), 20);
  for (size_t i = 0; i < std::min<size_t>(ds.graphs.size(), 50); ++i) {
    EXPECT_EQ(test::NumConnectedComponents(ds.graphs[i]), 1);
  }
}

TEST(MoleculeTest, BinaryLabelsRoughlyBalanced) {
  GraphDataset ds = MakeMoleculeDataset(SmallMolecules(), 21);
  int positives = 0;
  for (const Graph& g : ds.graphs) {
    positives += g.targets[0] > 0.5f ? 1 : 0;
  }
  const double rate = static_cast<double>(positives) / ds.graphs.size();
  EXPECT_GT(rate, 0.3);
  EXPECT_LT(rate, 0.7);
}

TEST(MoleculeTest, MissingLabelFractionApproximatelyMet) {
  MoleculeDatasetSpec spec = GetOgbMoleculeSpec("TOX21", 0.5);
  GraphDataset ds = MakeMoleculeDataset(spec, 22);
  int64_t missing = 0;
  int64_t total = 0;
  for (const Graph& g : ds.graphs) {
    for (float m : g.target_mask) {
      missing += m == 0.f ? 1 : 0;
      ++total;
    }
  }
  const double rate = static_cast<double>(missing) / total;
  EXPECT_NEAR(rate, spec.missing_label_fraction, 0.05);
}

TEST(MoleculeTest, RegressionTargetsAreStandardized) {
  GraphDataset ds =
      MakeMoleculeDataset(GetOgbMoleculeSpec("ESOL", 0.5), 23);
  double mean = 0.0;
  for (const Graph& g : ds.graphs) mean += g.targets[0];
  mean /= static_cast<double>(ds.graphs.size());
  EXPECT_NEAR(mean, 0.0, 0.05);
}

TEST(MoleculeTest, ScaffoldSplitIsDisjoint) {
  GraphDataset ds = MakeMoleculeDataset(SmallMolecules(), 24);
  std::set<int64_t> train_scaffolds;
  for (size_t idx : ds.train_idx) {
    train_scaffolds.insert(ds.graphs[idx].scaffold_id);
  }
  for (size_t idx : ds.test_idx) {
    EXPECT_EQ(train_scaffolds.count(ds.graphs[idx].scaffold_id), 0u);
  }
}

TEST(MoleculeTest, AllNineSpecsBuild) {
  for (const std::string& name : OgbMoleculeNames()) {
    MoleculeDatasetSpec spec = GetOgbMoleculeSpec(name, 0.3);
    GraphDataset ds = MakeMoleculeDataset(spec, 25);
    EXPECT_EQ(ds.name, name);
    EXPECT_EQ(ds.num_tasks, spec.num_tasks);
    ds.Validate();
  }
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

TEST(RegistryTest, AllNamesResolveAndValidate) {
  for (const std::string& name : AllDatasetNames()) {
    GraphDataset ds = MakeDatasetByName(name, 0.2, 26);
    EXPECT_EQ(ds.name, name);
    EXPECT_FALSE(ds.train_idx.empty()) << name;
    EXPECT_FALSE(ds.test_idx.empty()) << name;
  }
}

TEST(RegistryDeathTest, UnknownNameAborts) {
  EXPECT_DEATH(MakeDatasetByName("NOPE", 1.0, 1), "unknown dataset");
}

}  // namespace
}  // namespace oodgnn
