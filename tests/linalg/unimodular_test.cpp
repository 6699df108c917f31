#include "linalg/unimodular.hpp"

#include <gtest/gtest.h>

#include <ostream>

#include "linalg/gcd.hpp"

namespace flo::linalg {
namespace {

TEST(IsUnimodularTest, Basics) {
  EXPECT_TRUE(is_unimodular(IntMatrix::identity(3)));
  EXPECT_TRUE(is_unimodular(IntMatrix{{0, 1}, {1, 0}}));  // det -1
  EXPECT_FALSE(is_unimodular(IntMatrix{{2, 0}, {0, 1}}));
  EXPECT_FALSE(is_unimodular(IntMatrix(2, 3)));  // not square
  EXPECT_FALSE(is_unimodular(IntMatrix{}));      // empty
}

TEST(CompleteToUnimodularTest, UnitVector) {
  const IntVector d{0, 1, 0};
  const IntMatrix m = complete_to_unimodular(d, 0);
  EXPECT_TRUE(is_unimodular(m));
  EXPECT_EQ(m.row(0), d);
}

TEST(CompleteToUnimodularTest, GeneralPrimitiveRow) {
  const IntVector d{3, 5};
  const IntMatrix m = complete_to_unimodular(d, 0);
  EXPECT_TRUE(is_unimodular(m));
  EXPECT_EQ(m.row(0), d);
}

TEST(CompleteToUnimodularTest, PlacesRowAtRequestedIndex) {
  const IntVector d{2, 3, 5};
  const IntMatrix m = complete_to_unimodular(d, 2);
  EXPECT_TRUE(is_unimodular(m));
  EXPECT_EQ(m.row(2), d);
}

TEST(CompleteToUnimodularTest, NegativeLeadingEntry) {
  const IntVector d{-1, 0};
  const IntMatrix m = complete_to_unimodular(d, 0);
  EXPECT_TRUE(is_unimodular(m));
  EXPECT_EQ(m.row(0), d);
}

TEST(CompleteToUnimodularTest, RejectsBadInput) {
  EXPECT_THROW(complete_to_unimodular(IntVector{0, 0}, 0),
               std::invalid_argument);
  EXPECT_THROW(complete_to_unimodular(IntVector{2, 4}, 0),
               std::invalid_argument);  // not primitive
  EXPECT_THROW(complete_to_unimodular(IntVector{1, 0}, 2),
               std::invalid_argument);  // bad index
  EXPECT_THROW(complete_to_unimodular(IntVector{}, 0), std::invalid_argument);
}

TEST(UnimodularInverseTest, RoundTrip) {
  IntMatrix m{{1, 2}, {0, 1}};
  const IntMatrix inv = unimodular_inverse(m);
  EXPECT_TRUE((m * inv).is_identity());
  EXPECT_TRUE((inv * m).is_identity());
}

TEST(UnimodularInverseTest, Permutation) {
  IntMatrix p{{0, 1, 0}, {0, 0, 1}, {1, 0, 0}};
  const IntMatrix inv = unimodular_inverse(p);
  EXPECT_TRUE((p * inv).is_identity());
}

TEST(UnimodularInverseTest, RejectsNonUnimodular) {
  EXPECT_THROW(unimodular_inverse(IntMatrix{{2, 0}, {0, 1}}),
               std::invalid_argument);
}

struct CompletionCase {
  IntVector d;
  std::size_t row;
};

// Without a printer gtest dumps the raw bytes of the case, heap pointers
// included, so the ctest names gtest_discover_tests derives from it would
// change from build to build.
void PrintTo(const CompletionCase& c, std::ostream* os) {
  *os << "d=(";
  for (std::size_t i = 0; i < c.d.size(); ++i) {
    *os << (i ? ", " : "") << c.d[i];
  }
  *os << ") row=" << c.row;
}

class CompletionPropertyTest
    : public ::testing::TestWithParam<CompletionCase> {};

TEST_P(CompletionPropertyTest, RowPlacedAndUnimodular) {
  const auto& param = GetParam();
  const IntMatrix m = complete_to_unimodular(param.d, param.row);
  EXPECT_TRUE(is_unimodular(m));
  EXPECT_EQ(m.row(param.row), param.d);
  // The inverse is integral and exact.
  const IntMatrix inv = unimodular_inverse(m);
  EXPECT_TRUE((m * inv).is_identity());
}

INSTANTIATE_TEST_SUITE_P(
    Vectors, CompletionPropertyTest,
    ::testing::Values(CompletionCase{{1, 0}, 0}, CompletionCase{{0, 1}, 1},
                      CompletionCase{{1, 1}, 0}, CompletionCase{{2, 3}, 1},
                      CompletionCase{{-3, 2}, 0},
                      CompletionCase{{5, -7, 3}, 1},
                      CompletionCase{{1, 1, 1, 1}, 3},
                      CompletionCase{{0, 0, 1}, 0},
                      CompletionCase{{12, 5, 7}, 2},
                      CompletionCase{{-1, -1, -3}, 0}));

}  // namespace
}  // namespace flo::linalg
