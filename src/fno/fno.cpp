#include "fno/fno.hpp"

namespace turb::fno {

Fno::Fno(FnoConfig config, Rng& rng)
    : config_(config),
      lift1_(config.in_channels, config.lifting_channels, rng, true,
             "lifting.0"),
      lift2_(config.lifting_channels, config.width, rng, true, "lifting.1"),
      proj1_(config.width, config.projection_channels, rng, true,
             "projection.0"),
      proj2_(config.projection_channels, config.out_channels, rng, true,
             "projection.1") {
  TURB_CHECK_MSG(config_.rank() == 2 || config_.rank() == 3,
                 "FNO rank must be 2 or 3");
  TURB_CHECK(config_.n_layers >= 1);
  convs_.reserve(static_cast<std::size_t>(config_.n_layers));
  skips_.reserve(static_cast<std::size_t>(config_.n_layers));
  for (index_t l = 0; l < config_.n_layers; ++l) {
    const std::string base = "blocks." + std::to_string(l);
    convs_.push_back(std::make_unique<nn::SpectralConv>(
        config_.width, config_.width, config_.n_modes, rng,
        base + ".spectral"));
    skips_.push_back(std::make_unique<nn::Linear>(
        config_.width, config_.width, rng, true, base + ".skip"));
    if (l + 1 < config_.n_layers) {
      acts_.push_back(std::make_unique<nn::Gelu>(base + ".act"));
    }
  }
}

TensorF Fno::forward(const TensorF& x) {
  TURB_CHECK_MSG(x.rank() == config_.rank() + 2,
                 "fno: input must be (N, C, spatial...), got rank "
                     << x.rank());
  TensorF h = lift2_.forward(lift_act_.forward(lift1_.forward(x)));
  for (index_t l = 0; l < config_.n_layers; ++l) {
    TensorF spec = convs_[static_cast<std::size_t>(l)]->forward(h);
    TensorF skip = skips_[static_cast<std::size_t>(l)]->forward(h);
    spec += skip;
    if (l + 1 < config_.n_layers) {
      h = acts_[static_cast<std::size_t>(l)]->forward(spec);
    } else {
      h = std::move(spec);
    }
  }
  return proj2_.forward(proj_act_.forward(proj1_.forward(h)));
}

TensorF Fno::backward(const TensorF& grad_out) {
  TensorF g = proj1_.backward(proj_act_.backward(proj2_.backward(grad_out)));
  for (index_t l = config_.n_layers; l-- > 0;) {
    if (l + 1 < config_.n_layers) {
      g = acts_[static_cast<std::size_t>(l)]->backward(g);
    }
    TensorF g_spec = convs_[static_cast<std::size_t>(l)]->backward(g);
    TensorF g_skip = skips_[static_cast<std::size_t>(l)]->backward(g);
    g_spec += g_skip;
    g = std::move(g_spec);
  }
  return lift1_.backward(lift_act_.backward(lift2_.backward(g)));
}

void Fno::collect_parameters(std::vector<nn::Parameter*>& out) {
  lift1_.collect_parameters(out);
  lift2_.collect_parameters(out);
  for (index_t l = 0; l < config_.n_layers; ++l) {
    convs_[static_cast<std::size_t>(l)]->collect_parameters(out);
    skips_[static_cast<std::size_t>(l)]->collect_parameters(out);
  }
  proj1_.collect_parameters(out);
  proj2_.collect_parameters(out);
}

index_t fno_parameter_count(const FnoConfig& c) {
  const index_t lift = (c.in_channels * c.lifting_channels +
                        c.lifting_channels) +
                       (c.lifting_channels * c.width + c.width);
  const index_t proj = (c.width * c.projection_channels +
                        c.projection_channels) +
                       (c.projection_channels * c.out_channels +
                        c.out_channels);
  index_t kept = 1;
  for (std::size_t d = 0; d + 1 < c.n_modes.size(); ++d) {
    kept *= c.n_modes[d];
  }
  kept *= c.n_modes.back() / 2 + 1;
  const index_t spectral_total =
      c.n_layers * (c.width * c.width * kept * 2);  // complex
  const index_t skip_per_layer = c.width * c.width + c.width;
  return lift + proj + spectral_total + c.n_layers * skip_per_layer;
}

}  // namespace turb::fno
