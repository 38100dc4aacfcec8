#ifndef EASIA_TURBULENCE_FIELD_H_
#define EASIA_TURBULENCE_FIELD_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"

namespace easia::turb {

/// Velocity component / pressure selector (the paper's GetImage operation
/// offers "u speed / v speed / w speed / pressure").
enum class Component { kU, kV, kW, kP };

/// All four, in TBF file order.
inline constexpr Component kComponents[] = {Component::kU, Component::kV,
                                            Component::kW, Component::kP};

Result<Component> ComponentFromName(std::string_view name);
std::string_view ComponentName(Component c);

/// Point sample of the decaying Taylor–Green vortex — an exact solution of
/// the incompressible Navier–Stokes equations, giving the archive physically
/// meaningful "simulation results" without running a solver:
///   u =  sin(x) cos(y) cos(z) F(t)
///   v = -cos(x) sin(y) cos(z) F(t)
///   w = 0
///   p = (rho/16) (cos 2x + cos 2y)(cos 2z + 2) F(t)^2,  F(t) = e^(-2 nu t)
struct FieldPoint {
  double u = 0, v = 0, w = 0, p = 0;
};
FieldPoint TaylorGreen(double x, double y, double z, double t, double nu);

/// Summary statistics of a scalar field, as a data-reduction product.
struct FieldStats {
  double min = 0;
  double max = 0;
  double mean = 0;
  double rms = 0;
  size_t count = 0;
};

/// A 2-D slice extracted from a 3-D field (the paper's principal example of
/// user-directed post-processing that "significantly reduces the amount of
/// data that needs to be shipped back").
struct Slice2D {
  char axis = 'x';        // normal axis
  size_t index = 0;       // plane index along the normal
  Component component = Component::kU;
  size_t n1 = 0, n2 = 0;  // in-plane dimensions
  std::vector<double> values;  // row-major [n1 * n2]

  double At(size_t i, size_t j) const { return values[i * n2 + j]; }
  FieldStats Stats() const;

  /// Renders to a binary PGM (P5) greyscale image, scaled to min..max.
  std::string ToPgm() const;

  /// Serialised size of this slice shipped as raw doubles.
  uint64_t RawBytes() const { return values.size() * sizeof(double); }
};

/// A materialised 3-D field snapshot: u,v,w,p on an n³ uniform grid over
/// [0,2pi)³ at one timestep.
class Field {
 public:
  /// Generates the Taylor–Green field on an n³ grid at time `t`.
  static Field Generate(size_t n, double t, double nu = 0.01);

  /// Allocates an all-zero field carrying the given metadata (deserialisers
  /// fill it in).
  static Field Zero(size_t n, double t, double nu);

  size_t n() const { return n_; }
  double time() const { return time_; }
  double nu() const { return nu_; }

  double At(Component c, size_t i, size_t j, size_t k) const;
  void Set(Component c, size_t i, size_t j, size_t k, double v);

  /// One component's n³ values, (i, j, k) row-major — the TBF file order,
  /// so codecs move a component as one block.
  std::span<const double> Values(Component c) const;
  std::span<double> MutableValues(Component c);

  /// Extracts the 2-D plane with the given normal axis and plane index.
  Result<Slice2D> Slice(char axis, size_t index, Component component) const;

  FieldStats Stats(Component component) const;

  /// Volume-averaged kinetic energy 0.5 <u*u + v*v + w*w>.
  double KineticEnergy() const;

  /// Maximum vorticity magnitude (central differences, periodic wrap).
  double MaxVorticity() const;

  /// Bytes of a materialised n³ 4-component double field plus header.
  static uint64_t FileBytes(size_t n);

 private:
  Field(size_t n, double t, double nu);

  size_t n_;
  double time_;
  double nu_;
  std::vector<double> u_, v_, w_, p_;
};

}  // namespace easia::turb

#endif  // EASIA_TURBULENCE_FIELD_H_
