#include "polyhedral/reference.hpp"

#include <gtest/gtest.h>

namespace flo::poly {
namespace {

TEST(AffineReferenceTest, PaperSection3Example) {
  // W[i, j] from Fig. 3(b): 2x3 access matrix over (i1, i2) with a k loop.
  AffineReference ref(linalg::IntMatrix{{1, 0, 0}, {0, 1, 0}},
                      linalg::IntVector{0, 0});
  const auto element = ref.evaluate(std::vector<std::int64_t>{3, 5, 9});
  EXPECT_EQ(element, (linalg::IntVector{3, 5}));
}

TEST(AffineReferenceTest, OffsetApplied) {
  AffineReference ref(linalg::IntMatrix{{1, 0}, {0, 1}},
                      linalg::IntVector{2, -1});
  const auto element = ref.evaluate(std::vector<std::int64_t>{4, 4});
  EXPECT_EQ(element, (linalg::IntVector{6, 3}));
}

TEST(AffineReferenceTest, EvaluateIntoMatchesEvaluate) {
  AffineReference ref(linalg::IntMatrix{{1, 65}, {0, 1}},
                      linalg::IntVector{3, -2});
  const std::vector<std::int64_t> iter{4, 7};
  std::vector<std::int64_t> element(2, -1);
  ref.evaluate_into(iter, element);
  EXPECT_EQ(element, ref.evaluate(iter));
  EXPECT_EQ(element, (linalg::IntVector{462, 5}));
  std::vector<std::int64_t> short_buffer(1);
  EXPECT_THROW(ref.evaluate_into(iter, short_buffer), std::invalid_argument);
  EXPECT_THROW(ref.evaluate(std::vector<std::int64_t>{4}),
               std::invalid_argument);
}

TEST(AffineReferenceTest, OffsetLengthMismatch) {
  EXPECT_THROW(AffineReference(linalg::IntMatrix{{1, 0}},
                               linalg::IntVector{0, 0}),
               std::invalid_argument);
}

TEST(AffineReferenceTest, IdentityFactory) {
  const auto ref = AffineReference::identity(2, 3);
  EXPECT_EQ(ref.array_dims(), 2u);
  EXPECT_EQ(ref.nest_depth(), 3u);
  const auto element = ref.evaluate(std::vector<std::int64_t>{7, 8, 9});
  EXPECT_EQ(element, (linalg::IntVector{7, 8}));
  EXPECT_THROW(AffineReference::identity(3, 2), std::invalid_argument);
}

TEST(AffineReferenceTest, FromDimMap) {
  const std::vector<std::size_t> map{2, 0};
  const auto ref = AffineReference::from_dim_map(map, 3);
  const auto element = ref.evaluate(std::vector<std::int64_t>{7, 8, 9});
  EXPECT_EQ(element, (linalg::IntVector{9, 7}));
}

TEST(AffineReferenceTest, FromDimMapWithNone) {
  const std::vector<std::size_t> map{AffineReference::kNone, 1};
  const auto ref = AffineReference::from_dim_map(map, 2);
  const auto element = ref.evaluate(std::vector<std::int64_t>{7, 8});
  EXPECT_EQ(element, (linalg::IntVector{0, 8}));
}

TEST(AffineReferenceTest, TransformedByUnimodular) {
  AffineReference ref(linalg::IntMatrix{{0, 1}, {1, 0}},
                      linalg::IntVector{1, 2});
  const linalg::IntMatrix d{{0, 1}, {1, 0}};  // swap data dims
  const auto t = ref.transformed(d);
  // D * Q == identity; D * q == (2, 1).
  EXPECT_EQ(t.access_matrix(), (linalg::IntMatrix{{1, 0}, {0, 1}}));
  EXPECT_EQ(t.offset(), (linalg::IntVector{2, 1}));
  // Transforming commutes with evaluation.
  const std::vector<std::int64_t> iter{3, 4};
  const auto direct = d * ref.evaluate(iter);
  EXPECT_EQ(t.evaluate(iter), direct);
}

TEST(AffineReferenceTest, StaysWithinDetectsOutOfBounds) {
  IterationSpace iters({{0, 9}, {0, 9}});
  DataSpace ok({10, 10});
  DataSpace small({10, 5});
  const auto ref = AffineReference::identity(2, 2);
  EXPECT_TRUE(ref.stays_within(iters, ok));
  EXPECT_FALSE(ref.stays_within(iters, small));
}

TEST(AffineReferenceTest, StaysWithinHandlesOffsets) {
  IterationSpace iters({{0, 8}});
  const AffineReference shifted(linalg::IntMatrix{{1}},
                                linalg::IntVector{1});
  EXPECT_FALSE(shifted.stays_within(iters, DataSpace({9})));
  EXPECT_TRUE(shifted.stays_within(iters, DataSpace({10})));
  const AffineReference negative(linalg::IntMatrix{{1}},
                                 linalg::IntVector{-1});
  EXPECT_FALSE(negative.stays_within(iters, DataSpace({9})));
}

TEST(AffineReferenceTest, StaysWithinNegativeCoefficient) {
  // a = 9 - i stays within [0, 10) for i in [0, 9].
  IterationSpace iters({{0, 9}});
  const AffineReference rev(linalg::IntMatrix{{-1}}, linalg::IntVector{9});
  EXPECT_TRUE(rev.stays_within(iters, DataSpace({10})));
}

TEST(AffineReferenceTest, ToStringReadable) {
  AffineReference ref(linalg::IntMatrix{{0, 1}, {2, 0}},
                      linalg::IntVector{0, 3});
  const std::string s = ref.to_string();
  EXPECT_NE(s.find("i2"), std::string::npos);
  EXPECT_NE(s.find("2*i1"), std::string::npos);
  EXPECT_NE(s.find("+3"), std::string::npos);
}

}  // namespace
}  // namespace flo::poly
