#include "phase/size_dist.hpp"

#include <cmath>
#include <cstdlib>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/numeric.hpp"
#include "phase/fit.hpp"

namespace esched {

namespace {

/// det is approximated by an Erlang-64 (SCV = 1/64). Deterministic sizes
/// have SCV 0, which no finite phase-type distribution reaches.
constexpr int kDetStages = 64;

const SizeDistFamilyInfo* find_family(const std::string& name) {
  for (const SizeDistFamilyInfo& info : size_dist_families()) {
    if (name == info.name) return &info;
  }
  return nullptr;
}

SizeDistFamily family_of(const std::string& name) {
  if (name == "exp") return SizeDistFamily::kExp;
  if (name == "erlang") return SizeDistFamily::kErlang;
  if (name == "hyperexp") return SizeDistFamily::kHyperExp;
  if (name == "coxian2") return SizeDistFamily::kCoxian2;
  if (name == "ph-fit") return SizeDistFamily::kPhFit;
  if (name == "det") return SizeDistFamily::kDet;
  if (name == "lognormal") return SizeDistFamily::kLognormal;
  if (name == "pareto") return SizeDistFamily::kPareto;
  ESCHED_ASSERT(false, "family table out of sync");
}

std::size_t arg_count(SizeDistFamily family) {
  switch (family) {
    case SizeDistFamily::kExp:
    case SizeDistFamily::kDet: return 0;
    case SizeDistFamily::kErlang:
    case SizeDistFamily::kLognormal:
    case SizeDistFamily::kPareto: return 1;
    case SizeDistFamily::kHyperExp:
    case SizeDistFamily::kCoxian2:
    case SizeDistFamily::kPhFit: return 3;
  }
  ESCHED_ASSERT(false, "unreachable size-dist family");
}

Error syntax_error(const std::string& text, const SizeDistFamilyInfo& info,
                   const std::string& why) {
  return Error("bad size distribution '" + text + "': " + why +
               " (syntax: " + info.syntax + ")");
}

/// Strictly parses one finite double (the whole token, no trailing text).
double parse_arg(const std::string& text, const SizeDistFamilyInfo& info,
                 const std::string& token) {
  if (token.empty()) throw syntax_error(text, info, "empty parameter");
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == nullptr || *end != '\0' || !is_finite(value)) {
    throw syntax_error(text, info,
                       "'" + token + "' is not a finite number");
  }
  return value;
}

std::string joined_family_names() {
  std::string all;
  for (const SizeDistFamilyInfo& info : size_dist_families()) {
    if (!all.empty()) all += ", ";
    all += info.syntax;
  }
  return all;
}

/// Moments of the mean-1 lognormal with the given SCV s:
/// m_n = (1 + s)^{n(n-1)/2}.
Moments3 lognormal_moments(double scv) {
  const double b = 1.0 + scv;
  return {1.0, b, b * b * b};
}

/// Moments of the mean-1 Pareto(alpha): scale x_m = (alpha-1)/alpha,
/// E[X^n] = alpha x_m^n / (alpha - n), finite for alpha > n.
Moments3 pareto_moments(double alpha) {
  const double xm = (alpha - 1.0) / alpha;
  return {1.0, alpha * xm * xm / (alpha - 2.0),
          alpha * xm * xm * xm / (alpha - 3.0)};
}

}  // namespace

const std::vector<SizeDistFamilyInfo>& size_dist_families() {
  static const std::vector<SizeDistFamilyInfo> families = {
      {"exp", "exp", "exponential sizes (the paper's model; the default)"},
      {"erlang", "erlang:n", "n-stage Erlang, SCV = 1/n (erlang:1 == exp)"},
      {"hyperexp", "hyperexp:p,r1,r2",
       "Exp(r1) w.p. p, else Exp(r2); SCV >= 1"},
      {"coxian2", "coxian2:nu1,nu2,p",
       "two-phase Coxian: rate nu1, then rate nu2 w.p. p"},
      {"ph-fit", "ph-fit:m1,m2,m3",
       "three-moment phase-type fit (Coxian-2 / Erlang-Coxian)"},
      {"det", "det",
       "near-deterministic surrogate (Erlang-64, SCV = 1/64)"},
      {"lognormal", "lognormal:scv",
       "lognormal moment surrogate at the given SCV, via ph-fit"},
      {"pareto", "pareto:alpha",
       "Pareto(alpha > 3) moment surrogate, via ph-fit"},
  };
  return families;
}

SizeDistSpec SizeDistSpec::parse(const std::string& text) {
  const std::size_t colon = text.find(':');
  const std::string name = text.substr(0, colon);
  const SizeDistFamilyInfo* info = find_family(name);
  if (info == nullptr) {
    throw Error("unknown size distribution family '" + name +
                "' in '" + text + "' (expected one of: " +
                joined_family_names() + ")");
  }
  std::vector<double> args;
  if (colon != std::string::npos) {
    std::string rest = text.substr(colon + 1);
    std::size_t start = 0;
    for (;;) {
      const std::size_t comma = rest.find(',', start);
      args.push_back(parse_arg(
          text, *info,
          rest.substr(start, comma == std::string::npos ? std::string::npos
                                                        : comma - start)));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  }
  const SizeDistFamily family = family_of(name);
  if (args.size() != arg_count(family)) {
    throw syntax_error(text, *info,
                       "expected " + std::to_string(arg_count(family)) +
                           " parameter(s), got " +
                           std::to_string(args.size()));
  }

  // Family-specific range checks, before the canonical form is built.
  switch (family) {
    case SizeDistFamily::kExp:
    case SizeDistFamily::kDet: break;
    case SizeDistFamily::kErlang: {
      const double n = args[0];
      if (n != std::floor(n) || n < 1.0 || n > 1000.0) {
        throw syntax_error(text, *info,
                           "stage count must be an integer in [1, 1000]");
      }
      if (n == 1.0) return SizeDistSpec{};  // Erlang-1 IS the exponential
      break;
    }
    case SizeDistFamily::kHyperExp:
      if (!(args[0] > 0.0 && args[0] < 1.0)) {
        throw syntax_error(text, *info, "branch probability p must be in (0,1)");
      }
      if (!(args[1] > 0.0 && args[2] > 0.0)) {
        throw syntax_error(text, *info, "branch rates must be positive");
      }
      break;
    case SizeDistFamily::kCoxian2:
      if (!(args[0] > 0.0 && args[1] > 0.0)) {
        throw syntax_error(text, *info, "phase rates must be positive");
      }
      if (!(args[2] >= 0.0 && args[2] <= 1.0)) {
        throw syntax_error(text, *info,
                           "continue probability p must be in [0,1]");
      }
      break;
    case SizeDistFamily::kPhFit:
      if (!(args[0] > 0.0 && args[1] > 0.0 && args[2] > 0.0)) {
        throw syntax_error(text, *info, "moments must be positive");
      }
      break;
    case SizeDistFamily::kLognormal:
      if (!(args[0] > 0.0)) {
        throw syntax_error(text, *info, "scv must be > 0");
      }
      break;
    case SizeDistFamily::kPareto:
      if (!(args[0] > 3.0)) {
        throw syntax_error(
            text, *info,
            "alpha must be > 3 (three finite moments are required)");
      }
      break;
  }

  SizeDistSpec spec;
  spec.family_ = family;
  spec.args_ = std::move(args);
  spec.canonical_ = name;
  for (std::size_t n = 0; n < spec.args_.size(); ++n) {
    spec.canonical_ += n == 0 ? ':' : ',';
    // Plain integers where exact ("20", never "2e+01"); + 0.0 folds -0
    // into 0, since both name the same distribution.
    spec.canonical_ += json_number_to_string(spec.args_[n] + 0.0);
  }
  // Every family must actually compile (e.g. ph-fit moments can be an
  // invalid moment sequence); surface that at parse time, naming the spec.
  if (family != SizeDistFamily::kExp) {
    try {
      (void)spec.compile(1.0);
    } catch (const Error& e) {
      throw syntax_error(text, *info, e.what());
    }
  }
  return spec;
}

double SizeDistSpec::scv() const {
  if (is_exponential()) return 1.0;
  return compile(1.0).scv();
}

PhaseType SizeDistSpec::compile(double mu) const {
  ESCHED_CHECK(mu > 0.0, "size distribution needs a positive rate mu");
  const double target_mean = 1.0 / mu;
  switch (family_) {
    case SizeDistFamily::kExp: return PhaseType::exponential(mu);
    case SizeDistFamily::kErlang: {
      const int n = static_cast<int>(args_[0]);
      return PhaseType::erlang(n, static_cast<double>(n) * mu);
    }
    case SizeDistFamily::kHyperExp: {
      const PhaseType shape = PhaseType::hyperexponential(
          Vector{args_[0], 1.0 - args_[0]}, Vector{args_[1], args_[2]});
      return shape.scaled_by(target_mean / shape.mean());
    }
    case SizeDistFamily::kCoxian2: {
      const PhaseType shape = PhaseType::coxian2(args_[0], args_[1], args_[2]);
      return shape.scaled_by(target_mean / shape.mean());
    }
    case SizeDistFamily::kPhFit: {
      const PhaseType shape = fit_moments3({args_[0], args_[1], args_[2]});
      return shape.scaled_by(target_mean / shape.mean());
    }
    case SizeDistFamily::kDet:
      return PhaseType::erlang(kDetStages,
                               static_cast<double>(kDetStages) * mu);
    case SizeDistFamily::kLognormal: {
      const PhaseType shape = fit_moments3(lognormal_moments(args_[0]));
      return shape.scaled_by(target_mean / shape.mean());
    }
    case SizeDistFamily::kPareto: {
      const PhaseType shape = fit_moments3(pareto_moments(args_[0]));
      return shape.scaled_by(target_mean / shape.mean());
    }
  }
  ESCHED_ASSERT(false, "unreachable size-dist family");
}

}  // namespace esched
