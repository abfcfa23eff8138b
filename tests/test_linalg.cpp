// Unit tests for the dense linear-algebra substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "linalg/lu.h"
#include "linalg/matrix.h"

namespace dpm::linalg {
namespace {

TEST(Matrix, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, ZeroInitialized) {
  Matrix m(2, 3);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(m(i, j), 0.0);
  }
}

TEST(Matrix, FillConstructor) {
  Matrix m(2, 2, 7.5);
  EXPECT_EQ(m(0, 0), 7.5);
  EXPECT_EQ(m(1, 1), 7.5);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), LinalgError);
}

TEST(Matrix, Identity) {
  const Matrix i3 = Matrix::identity(3);
  EXPECT_EQ(i3(0, 0), 1.0);
  EXPECT_EQ(i3(1, 2), 0.0);
  const Matrix m{{1.0, 2.0, 1.0}, {0.0, 1.0, 5.0}, {2.0, 3.0, 4.0}};
  EXPECT_EQ(Matrix::max_abs_diff(m * i3, m), 0.0);
  EXPECT_EQ(Matrix::max_abs_diff(i3 * m, m), 0.0);
}

TEST(Matrix, Diagonal) {
  const Matrix d = Matrix::diagonal({2.0, 3.0});
  EXPECT_EQ(d(0, 0), 2.0);
  EXPECT_EQ(d(1, 1), 3.0);
  EXPECT_EQ(d(0, 1), 0.0);
}

TEST(Matrix, AtBoundsChecked) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), LinalgError);
  EXPECT_THROW(m.at(0, 2), LinalgError);
  EXPECT_NO_THROW(m.at(1, 1));
}

TEST(Matrix, Transpose) {
  const Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t(2, 1), 6.0);
  EXPECT_EQ(Matrix::max_abs_diff(t.transposed(), m), 0.0);
}

TEST(Matrix, AddSubScale) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{4.0, 3.0}, {2.0, 1.0}};
  const Matrix sum = a + b;
  EXPECT_EQ(sum(0, 0), 5.0);
  EXPECT_EQ(sum(1, 1), 5.0);
  const Matrix diff = sum - b;
  EXPECT_EQ(Matrix::max_abs_diff(diff, a), 0.0);
  const Matrix scaled = a * 2.0;
  EXPECT_EQ(scaled(1, 0), 6.0);
  EXPECT_EQ(Matrix::max_abs_diff(scaled, 2.0 * a), 0.0);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 2);
  const Matrix b(2, 3);
  EXPECT_THROW(a += b, LinalgError);
  EXPECT_THROW(a - b, LinalgError);
  EXPECT_THROW(b * b, LinalgError);
  EXPECT_THROW(Matrix::max_abs_diff(a, b), LinalgError);
}

TEST(Matrix, Product) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{0.0, 1.0}, {1.0, 0.0}};
  const Matrix ab = a * b;
  EXPECT_EQ(ab(0, 0), 2.0);
  EXPECT_EQ(ab(0, 1), 1.0);
  EXPECT_EQ(ab(1, 0), 4.0);
  EXPECT_EQ(ab(1, 1), 3.0);
}

TEST(Matrix, MatVec) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Vector v{1.0, 1.0};
  const Vector av = a * v;
  EXPECT_EQ(av[0], 3.0);
  EXPECT_EQ(av[1], 7.0);
  EXPECT_THROW(a * Vector{1.0}, LinalgError);
}

TEST(Matrix, LeftMultiply) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Vector v{1.0, 2.0};
  const Vector va = left_multiply(v, a);
  EXPECT_EQ(va[0], 7.0);
  EXPECT_EQ(va[1], 10.0);
  EXPECT_THROW(left_multiply(Vector{1.0}, a), LinalgError);
}

TEST(Matrix, FrobeniusNorm) {
  const Matrix a{{3.0, 0.0}, {0.0, 4.0}};
  EXPECT_DOUBLE_EQ(a.frobenius_norm(), 5.0);
}

TEST(VectorOps, DotAndNorms) {
  const Vector a{1.0, 2.0, 2.0};
  const Vector b{2.0, 0.0, 1.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 4.0);
  EXPECT_DOUBLE_EQ(norm2(a), 3.0);
  EXPECT_DOUBLE_EQ(norm_inf(Vector{-5.0, 2.0}), 5.0);
  EXPECT_DOUBLE_EQ(sum(a), 5.0);
  EXPECT_THROW(dot(a, Vector{1.0}), LinalgError);
}

TEST(VectorOps, Axpy) {
  const Vector a{1.0, 2.0};
  const Vector b{10.0, 20.0};
  const Vector r = axpy(a, 0.5, b);
  EXPECT_DOUBLE_EQ(r[0], 6.0);
  EXPECT_DOUBLE_EQ(r[1], 12.0);
  EXPECT_THROW(axpy(a, 1.0, Vector{1.0}), LinalgError);
}

// ---------------------------------------------------------------------
// LU decomposition
// ---------------------------------------------------------------------

TEST(Lu, SolvesKnownSystem) {
  const Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const Vector b{3.0, 5.0};
  const Vector x = solve(a, b);
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Lu, RequiresSquare) {
  EXPECT_THROW(LuDecomposition(Matrix(2, 3)), LinalgError);
}

TEST(Lu, SingularThrows) {
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(LuDecomposition{a}, LinalgError);
}

TEST(Lu, RhsSizeMismatchThrows) {
  const LuDecomposition lu(Matrix::identity(2));
  EXPECT_THROW(lu.solve(Vector{1.0, 2.0, 3.0}), LinalgError);
  EXPECT_THROW(lu.solve_transposed(Vector{1.0}), LinalgError);
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
  const Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const Vector x = solve(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, Determinant) {
  const Matrix a{{2.0, 0.0}, {0.0, 3.0}};
  EXPECT_NEAR(LuDecomposition(a).determinant(), 6.0, 1e-12);
  const Matrix swap{{0.0, 1.0}, {1.0, 0.0}};
  EXPECT_NEAR(LuDecomposition(swap).determinant(), -1.0, 1e-12);
}

TEST(Lu, InverseRoundTrip) {
  const Matrix a{{4.0, 7.0}, {2.0, 6.0}};
  const Matrix inv = LuDecomposition(a).inverse();
  EXPECT_LT(Matrix::max_abs_diff(a * inv, Matrix::identity(2)), 1e-12);
}

TEST(Lu, SolveTransposedMatchesExplicitTranspose) {
  const Matrix a{{3.0, 1.0, 2.0}, {1.0, 4.0, 0.0}, {2.0, 0.0, 5.0}};
  const Vector b{1.0, 2.0, 3.0};
  const Vector x1 = LuDecomposition(a).solve_transposed(b);
  const Vector x2 = LuDecomposition(a.transposed()).solve(b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-12);
}

// Property sweep: random diagonally-dominant systems solve with tiny
// residuals for a range of orders.
class LuRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(LuRandomTest, ResidualIsSmall) {
  const int n = GetParam();
  std::mt19937_64 gen(1234 + n);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  Matrix a(n, n);
  Vector b(n);
  for (int i = 0; i < n; ++i) {
    double row_abs = 0.0;
    for (int j = 0; j < n; ++j) {
      a(i, j) = u(gen);
      row_abs += std::abs(a(i, j));
    }
    a(i, i) += row_abs + 1.0;  // ensure nonsingular
    b[i] = u(gen);
  }
  const Vector x = solve(a, b);
  const Vector r = a * x;
  for (int i = 0; i < n; ++i) EXPECT_NEAR(r[i], b[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Orders, LuRandomTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55));

}  // namespace
}  // namespace dpm::linalg
