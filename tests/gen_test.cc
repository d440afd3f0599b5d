#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

#include "common/rng.h"
#include "gen/edge_list_io.h"
#include "gen/profiles.h"
#include "gen/rmat.h"
#include "gen/social_graph.h"
#include "graph/stats.h"

namespace hermes {
namespace {

TEST(SocialGraphTest, ProducesRequestedVertexCount) {
  SocialGraphOptions opt;
  opt.num_vertices = 5000;
  opt.seed = 1;
  Graph g = GenerateSocialGraph(opt);
  EXPECT_EQ(g.NumVertices(), 5000u);
  EXPECT_GT(g.NumEdges(), 4000u);
}

TEST(SocialGraphTest, DeterministicBySeed) {
  SocialGraphOptions opt;
  opt.num_vertices = 2000;
  opt.seed = 7;
  Graph a = GenerateSocialGraph(opt);
  Graph b = GenerateSocialGraph(opt);
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  for (VertexId v = 0; v < a.NumVertices(); ++v) {
    const auto na = a.Neighbors(v);
    const auto nb = b.Neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()));
  }
}

TEST(SocialGraphTest, DifferentSeedsDiffer) {
  SocialGraphOptions opt;
  opt.num_vertices = 2000;
  opt.seed = 7;
  Graph a = GenerateSocialGraph(opt);
  opt.seed = 8;
  Graph b = GenerateSocialGraph(opt);
  bool any_diff = a.NumEdges() != b.NumEdges();
  for (VertexId v = 0; !any_diff && v < a.NumVertices(); ++v) {
    const auto na = a.Neighbors(v);
    const auto nb = b.Neighbors(v);
    any_diff = !std::equal(na.begin(), na.end(), nb.begin(), nb.end());
  }
  EXPECT_TRUE(any_diff);
}

TEST(SocialGraphTest, NoIsolatedVertices) {
  SocialGraphOptions opt;
  opt.num_vertices = 3000;
  opt.seed = 3;
  Graph g = GenerateSocialGraph(opt);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_GT(g.Degree(v), 0u) << "vertex " << v;
  }
}

TEST(SocialGraphTest, CommunityAssignmentCoversAllVertices) {
  SocialGraphOptions opt;
  opt.num_vertices = 2500;
  opt.seed = 4;
  std::vector<std::uint32_t> community;
  Graph g = GenerateSocialGraph(opt, &community);
  ASSERT_EQ(community.size(), g.NumVertices());
  const std::uint32_t max_c =
      *std::max_element(community.begin(), community.end());
  EXPECT_GT(max_c, 1u);  // more than one community
}

TEST(SocialGraphTest, LowMixingKeepsEdgesIntraCommunity) {
  SocialGraphOptions opt;
  opt.num_vertices = 4000;
  opt.community_mixing = 0.05;
  opt.seed = 5;
  std::vector<std::uint32_t> community;
  Graph g = GenerateSocialGraph(opt, &community);
  std::size_t intra = 0;
  std::size_t total = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (VertexId w : g.Neighbors(v)) {
      if (w > v) {
        ++total;
        if (community[v] == community[w]) ++intra;
      }
    }
  }
  EXPECT_GT(static_cast<double>(intra) / static_cast<double>(total), 0.75);
}

TEST(SocialGraphTest, TriangleClosureRaisesClustering) {
  SocialGraphOptions low;
  low.num_vertices = 4000;
  low.triangle_closure = 0.0;
  low.seed = 6;
  SocialGraphOptions high = low;
  high.triangle_closure = 0.6;

  Rng rng(1);
  const double cc_low = ClusteringCoefficient(GenerateSocialGraph(low),
                                              1000, &rng);
  const double cc_high = ClusteringCoefficient(GenerateSocialGraph(high),
                                               1000, &rng);
  EXPECT_GT(cc_high, cc_low);
}

TEST(SocialGraphTest, HeavyTailExists) {
  SocialGraphOptions opt;
  opt.num_vertices = 10000;
  opt.power_law_exponent = 2.2;
  opt.seed = 8;
  Graph g = GenerateSocialGraph(opt);
  const DegreeStats stats = ComputeDegreeStats(g);
  // Hubs should far exceed the mean (heavy tail).
  EXPECT_GT(static_cast<double>(stats.max), 10.0 * stats.mean);
}

TEST(RmatTest, SizeAndDeterminism) {
  RmatOptions opt;
  opt.scale = 10;
  opt.edge_factor = 4.0;
  opt.seed = 2;
  Graph a = GenerateRmat(opt);
  Graph b = GenerateRmat(opt);
  EXPECT_EQ(a.NumVertices(), 1024u);
  EXPECT_EQ(a.NumEdges(), b.NumEdges());
  EXPECT_GT(a.NumEdges(), 3000u);
}

TEST(RmatTest, SkewedQuadrantsProduceHubs) {
  RmatOptions opt;
  opt.scale = 12;
  opt.edge_factor = 8.0;
  opt.seed = 3;
  Graph g = GenerateRmat(opt);
  const DegreeStats stats = ComputeDegreeStats(g);
  EXPECT_GT(static_cast<double>(stats.max), 5.0 * stats.mean);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_GT(g.Degree(v), 0u);
  }
}

TEST(ProfilesTest, AllThreeProfilesGenerate) {
  for (const DatasetProfile& p : AllProfiles(0.05)) {
    Graph g = GenerateDataset(p);
    EXPECT_GE(g.NumVertices(), 1000u) << p.name;
    EXPECT_GT(g.NumEdges(), g.NumVertices()) << p.name;
  }
}

TEST(ProfilesTest, LookupByName) {
  EXPECT_OK(ProfileByName("twitter", 1.0));
  EXPECT_OK(ProfileByName("ORKUT", 1.0));
  EXPECT_OK(ProfileByName("Dblp", 1.0));
  EXPECT_TRUE(ProfileByName("facebook", 1.0).status().IsNotFound());
}

TEST(ProfilesTest, DblpIsMoreClusteredThanTwitter) {
  Rng rng(1);
  Graph dblp = GenerateDataset(DblpProfile(0.1));
  Graph twitter = GenerateDataset(TwitterProfile(0.1));
  const double cc_dblp = ClusteringCoefficient(dblp, 1500, &rng);
  const double cc_twitter = ClusteringCoefficient(twitter, 1500, &rng);
  EXPECT_GT(cc_dblp, 2.0 * cc_twitter);
}

TEST(EdgeListIoTest, RoundTrip) {
  SocialGraphOptions opt;
  opt.num_vertices = 1000;
  opt.seed = 10;
  Graph g = GenerateSocialGraph(opt);
  const std::string path = test::FreshPath("hermes_edges.txt");
  ASSERT_OK(SaveEdgeList(g, path));
  auto loaded = LoadEdgeList(path);
  ASSERT_OK(loaded);
  EXPECT_EQ(loaded->NumVertices(), g.NumVertices());
  EXPECT_EQ(loaded->NumEdges(), g.NumEdges());
  std::remove(path.c_str());
}

TEST(EdgeListIoTest, MissingFileIsIOError) {
  EXPECT_TRUE(LoadEdgeList("/nonexistent/file.txt").status().IsIOError());
}

TEST(EdgeListIoTest, SkipsCommentsAndRenumbers) {
  const std::string path = test::FreshPath("hermes_sparse.txt");
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("# comment\n1000 2000\n2000 3000\n", f);
    fclose(f);
  }
  auto loaded = LoadEdgeList(path);
  ASSERT_OK(loaded);
  EXPECT_EQ(loaded->NumVertices(), 3u);  // densely renumbered
  EXPECT_EQ(loaded->NumEdges(), 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hermes
