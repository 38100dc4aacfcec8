#include "turbulence/field.h"

#include <cmath>

#include "common/string_util.h"

namespace easia::turb {

namespace {
constexpr double kTwoPi = 6.283185307179586;
constexpr double kRho = 1.0;
}  // namespace

Result<Component> ComponentFromName(std::string_view name) {
  if (name == "u") return Component::kU;
  if (name == "v") return Component::kV;
  if (name == "w") return Component::kW;
  if (name == "p") return Component::kP;
  return Status::InvalidArgument("unknown component: " + std::string(name));
}

std::string_view ComponentName(Component c) {
  switch (c) {
    case Component::kU: return "u";
    case Component::kV: return "v";
    case Component::kW: return "w";
    case Component::kP: return "p";
  }
  return "?";
}

FieldPoint TaylorGreen(double x, double y, double z, double t, double nu) {
  double f = std::exp(-2.0 * nu * t);
  FieldPoint out;
  out.u = std::sin(x) * std::cos(y) * std::cos(z) * f;
  out.v = -std::cos(x) * std::sin(y) * std::cos(z) * f;
  out.w = 0.0;
  out.p = (kRho / 16.0) * (std::cos(2 * x) + std::cos(2 * y)) *
          (std::cos(2 * z) + 2.0) * f * f;
  return out;
}

FieldStats Slice2D::Stats() const {
  FieldStats s;
  s.count = values.size();
  if (values.empty()) return s;
  s.min = values[0];
  s.max = values[0];
  double sum = 0, sum_sq = 0;
  for (double v : values) {
    if (v < s.min) s.min = v;
    if (v > s.max) s.max = v;
    sum += v;
    sum_sq += v * v;
  }
  s.mean = sum / static_cast<double>(s.count);
  s.rms = std::sqrt(sum_sq / static_cast<double>(s.count));
  return s;
}

std::string Slice2D::ToPgm() const {
  FieldStats s = Stats();
  double range = s.max - s.min;
  if (range <= 0) range = 1.0;
  std::string out = StrPrintf("P5\n%zu %zu\n255\n", n2, n1);
  out.reserve(out.size() + values.size());
  for (double v : values) {
    double scaled = (v - s.min) / range * 255.0;
    int pixel = static_cast<int>(scaled + 0.5);
    if (pixel < 0) pixel = 0;
    if (pixel > 255) pixel = 255;
    out += static_cast<char>(pixel);
  }
  return out;
}

Field::Field(size_t n, double t, double nu)
    : n_(n),
      time_(t),
      nu_(nu),
      u_(n * n * n),
      v_(n * n * n),
      w_(n * n * n),
      p_(n * n * n) {}

Field Field::Zero(size_t n, double t, double nu) { return Field(n, t, nu); }

Field Field::Generate(size_t n, double t, double nu) {
  Field field(n, t, nu);
  double h = kTwoPi / static_cast<double>(n);
  size_t idx = 0;
  for (size_t i = 0; i < n; ++i) {
    double x = static_cast<double>(i) * h;
    for (size_t j = 0; j < n; ++j) {
      double y = static_cast<double>(j) * h;
      for (size_t k = 0; k < n; ++k, ++idx) {
        double z = static_cast<double>(k) * h;
        FieldPoint pt = TaylorGreen(x, y, z, t, nu);
        field.u_[idx] = pt.u;
        field.v_[idx] = pt.v;
        field.w_[idx] = pt.w;
        field.p_[idx] = pt.p;
      }
    }
  }
  return field;
}

std::span<const double> Field::Values(Component c) const {
  switch (c) {
    case Component::kU: return u_;
    case Component::kV: return v_;
    case Component::kW: return w_;
    case Component::kP: return p_;
  }
  return u_;
}

std::span<double> Field::MutableValues(Component c) {
  std::span<const double> values = Values(c);
  return {const_cast<double*>(values.data()), values.size()};
}

double Field::At(Component c, size_t i, size_t j, size_t k) const {
  return Values(c)[(i * n_ + j) * n_ + k];
}

void Field::Set(Component c, size_t i, size_t j, size_t k, double v) {
  MutableValues(c)[(i * n_ + j) * n_ + k] = v;
}

Result<Slice2D> Field::Slice(char axis, size_t index,
                             Component component) const {
  if (index >= n_) {
    return Status::OutOfRange(
        StrPrintf("slice index %zu out of range (n=%zu)", index, n_));
  }
  Slice2D slice;
  slice.axis = axis;
  slice.index = index;
  slice.component = component;
  slice.n1 = n_;
  slice.n2 = n_;
  slice.values.resize(n_ * n_);
  for (size_t a = 0; a < n_; ++a) {
    for (size_t b = 0; b < n_; ++b) {
      double v;
      switch (axis) {
        case 'x':
          v = At(component, index, a, b);
          break;
        case 'y':
          v = At(component, a, index, b);
          break;
        case 'z':
          v = At(component, a, b, index);
          break;
        default:
          return Status::InvalidArgument(
              StrPrintf("bad slice axis '%c'", axis));
      }
      slice.values[a * n_ + b] = v;
    }
  }
  return slice;
}

FieldStats Field::Stats(Component component) const {
  std::span<const double> data = Values(component);
  FieldStats s;
  s.count = data.size();
  if (data.empty()) return s;
  s.min = data[0];
  s.max = data[0];
  double sum = 0, sum_sq = 0;
  for (double v : data) {
    if (v < s.min) s.min = v;
    if (v > s.max) s.max = v;
    sum += v;
    sum_sq += v * v;
  }
  s.mean = sum / static_cast<double>(s.count);
  s.rms = std::sqrt(sum_sq / static_cast<double>(s.count));
  return s;
}

double Field::KineticEnergy() const {
  double sum = 0;
  for (size_t i = 0; i < u_.size(); ++i) {
    sum += u_[i] * u_[i] + v_[i] * v_[i] + w_[i] * w_[i];
  }
  return 0.5 * sum / static_cast<double>(u_.size());
}

double Field::MaxVorticity() const {
  double h = kTwoPi / static_cast<double>(n_);
  double max_mag = 0;
  // Periodic neighbours of every grid index, so the stencil takes no
  // modulo per access.
  std::vector<size_t> next(n_), prev(n_);
  for (size_t i = 0; i < n_; ++i) {
    next[i] = (i + 1) % n_;
    prev[i] = (i + n_ - 1) % n_;
  }
  auto at = [this](const std::vector<double>& data, size_t i, size_t j,
                   size_t k) { return data[(i * n_ + j) * n_ + k]; };
  for (size_t i = 0; i < n_; ++i) {
    for (size_t j = 0; j < n_; ++j) {
      for (size_t k = 0; k < n_; ++k) {
        double dwdy = (at(w_, i, next[j], k) - at(w_, i, prev[j], k)) /
                      (2 * h);
        double dvdz = (at(v_, i, j, next[k]) - at(v_, i, j, prev[k])) /
                      (2 * h);
        double dudz = (at(u_, i, j, next[k]) - at(u_, i, j, prev[k])) /
                      (2 * h);
        double dwdx = (at(w_, next[i], j, k) - at(w_, prev[i], j, k)) /
                      (2 * h);
        double dvdx = (at(v_, next[i], j, k) - at(v_, prev[i], j, k)) /
                      (2 * h);
        double dudy = (at(u_, i, next[j], k) - at(u_, i, prev[j], k)) /
                      (2 * h);
        double ox = dwdy - dvdz;
        double oy = dudz - dwdx;
        double oz = dvdx - dudy;
        double mag = std::sqrt(ox * ox + oy * oy + oz * oz);
        if (mag > max_mag) max_mag = mag;
      }
    }
  }
  return max_mag;
}

uint64_t Field::FileBytes(size_t n) {
  return 64 + 4ULL * n * n * n * sizeof(double);
}

}  // namespace easia::turb
