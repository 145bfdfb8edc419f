#include "video/synth/scene.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "imaging/color.h"
#include "imaging/draw.h"

namespace vr {

const char* CategoryName(VideoCategory category) {
  switch (category) {
    case VideoCategory::kELearning:
      return "e-learning";
    case VideoCategory::kSports:
      return "sports";
    case VideoCategory::kCartoon:
      return "cartoon";
    case VideoCategory::kMovie:
      return "movie";
    case VideoCategory::kNews:
      return "news";
  }
  return "unknown";
}

namespace {

/// Bright slide with a title bar and ragged text blocks; a highlight
/// strip sweeps slowly down the bullet list.
class ELearningScene : public Scene {
 public:
  ELearningScene(int w, int h, Rng* rng) : w_(w), h_(h) {
    // Slides vary a lot in the wild: paper-white, tinted themes and the
    // occasional dark theme, which overlaps the movie category's
    // brightness range and makes the retrieval task non-trivial.
    const bool dark_theme = rng->Bernoulli(0.2);
    if (dark_theme) {
      bg_ = HsvToRgb({static_cast<double>(rng->UniformInt(180, 280)),
                      rng->UniformDouble(0.2, 0.6),
                      rng->UniformDouble(0.10, 0.30)});
      ink_ = {static_cast<uint8_t>(rng->UniformInt(190, 245)),
              static_cast<uint8_t>(rng->UniformInt(190, 245)),
              static_cast<uint8_t>(rng->UniformInt(190, 245))};
    } else {
      bg_ = HsvToRgb({static_cast<double>(rng->UniformInt(0, 359)),
                      rng->UniformDouble(0.0, 0.25),
                      rng->UniformDouble(0.80, 1.0)});
      ink_ = {static_cast<uint8_t>(rng->UniformInt(20, 90)),
              static_cast<uint8_t>(rng->UniformInt(20, 90)),
              static_cast<uint8_t>(rng->UniformInt(30, 110))};
    }
    const Hsv accent{static_cast<double>(rng->UniformInt(0, 359)),
                     rng->UniformDouble(0.4, 0.9),
                     rng->UniformDouble(0.35, 0.75)};
    title_ = HsvToRgb(accent);
    text_seed_ = rng->Next();
    n_blocks_ = static_cast<int>(rng->UniformInt(1, 4));
    has_figure_ = rng->Bernoulli(0.5);
    figure_color_ = HsvToRgb(
        {static_cast<double>(rng->UniformInt(0, 359)),
         rng->UniformDouble(0.3, 0.9), rng->UniformDouble(0.4, 0.9)});
    noise_seed_ = rng->Next();
  }

  void Render(int t, Image* out) const override {
    out->Fill(bg_);
    FillRect(out, 0, 0, w_, h_ / 8, title_);
    Rng text_rng(text_seed_);
    const int margin = w_ / 12;
    const int block_h = (h_ - h_ / 6) / (n_blocks_ + (has_figure_ ? 1 : 0));
    int y = h_ / 6;
    for (int b = 0; b < n_blocks_; ++b) {
      DrawTextBlock(out, margin, y, w_ - 2 * margin - (has_figure_ ? w_ / 3 : 0),
                    block_h - 4, std::max(4, h_ / 24), ink_, &text_rng);
      y += block_h;
    }
    if (has_figure_) {
      FillRect(out, w_ - w_ / 3 - margin, h_ / 5, w_ / 3, h_ / 3,
               figure_color_);
    }
    // Sweeping highlight bar (the only motion on a slide).
    const int hl_y = h_ / 6 + (t * 3) % std::max(1, h_ - h_ / 4);
    for (int x = margin / 2; x < w_ - margin / 2; ++x) {
      for (int yy = hl_y; yy < std::min(h_, hl_y + 3); ++yy) {
        Rgb p = out->PixelRgb(x, yy);
        p.r = static_cast<uint8_t>(std::min(255, p.r + 30));
        p.g = static_cast<uint8_t>(std::max(0, p.g - 10));
        out->SetPixel(x, yy, p);
      }
    }
    Rng noise(noise_seed_ + static_cast<uint64_t>(t));
    AddGaussianNoise(out, 1.2, &noise);
  }

 private:
  int w_;
  int h_;
  Rgb bg_, title_, ink_, figure_color_;
  uint64_t text_seed_, noise_seed_;
  int n_blocks_;
  bool has_figure_;
};

/// Green pitch with white markings, two teams of moving circular
/// players, a noisy crowd band, and a camera pan.
class SportsScene : public Scene {
 public:
  SportsScene(int w, int h, Rng* rng) : w_(w), h_(h) {
    // Pitch color ranges from lush green through dry yellow-green to
    // indoor-court tan, so the palette overlaps other categories.
    grass_ = HsvToRgb({rng->UniformDouble(45.0, 150.0),
                       rng->UniformDouble(0.45, 0.85),
                       rng->UniformDouble(0.35, 0.75)});
    team_a_ = HsvToRgb({static_cast<double>(rng->UniformInt(330, 380) % 360),
                        0.85, 0.9});
    team_b_ = HsvToRgb({static_cast<double>(rng->UniformInt(180, 260)), 0.85,
                        0.9});
    pan_speed_ = rng->UniformDouble(0.5, 2.5);
    const int n_players = static_cast<int>(rng->UniformInt(6, 10));
    for (int i = 0; i < n_players; ++i) {
      Player p;
      p.x0 = rng->UniformDouble(0, w_);
      p.y0 = rng->UniformDouble(h_ * 0.35, h_ * 0.95);
      p.vx = rng->UniformDouble(-1.5, 1.5);
      p.vy = rng->UniformDouble(-0.6, 0.6);
      p.team_a = (i % 2 == 0);
      players_.push_back(p);
    }
    noise_seed_ = rng->Next();
    stripe_period_ = static_cast<int>(rng->UniformInt(10, 18));
  }

  void Render(int t, Image* out) const override {
    const int pan = static_cast<int>(t * pan_speed_);
    // Mowing stripes in the grass give fine periodic texture.
    for (int y = 0; y < h_; ++y) {
      for (int x = 0; x < w_; ++x) {
        const bool light = (((x + pan) / stripe_period_) % 2) == 0;
        Rgb g = grass_;
        if (light) {
          g.g = static_cast<uint8_t>(std::min(255, g.g + 25));
        }
        out->SetPixel(x, y, g);
      }
    }
    // Crowd band: high-frequency salt-and-pepper area at the top.
    Rng crowd(noise_seed_ ^ 0x5EEDULL);
    for (int y = 0; y < h_ / 5; ++y) {
      for (int x = 0; x < w_; ++x) {
        const uint8_t v = static_cast<uint8_t>(crowd.UniformInt(40, 210));
        out->SetPixel(x, y, {v, static_cast<uint8_t>(v / 2 + 40),
                             static_cast<uint8_t>(v / 3 + 30)});
      }
    }
    // Pitch markings (pan with the camera).
    const int mid_x = (w_ / 2 + pan) % w_;
    DrawLine(out, mid_x, h_ / 5, mid_x, h_ - 1, {245, 245, 245});
    FillCircle(out, mid_x, h_ * 3 / 5, h_ / 8, grass_);
    for (int a = 0; a < 360; a += 4) {
      const int cx = mid_x + static_cast<int>(h_ / 8 * std::cos(a * M_PI / 180));
      const int cy =
          h_ * 3 / 5 + static_cast<int>(h_ / 8 * std::sin(a * M_PI / 180));
      if (out->Contains(cx, cy)) out->SetPixel(cx, cy, {245, 245, 245});
    }
    // Players.
    for (const Player& p : players_) {
      int px = static_cast<int>(p.x0 + p.vx * t - pan) % w_;
      if (px < 0) px += w_;
      const int py = std::clamp(static_cast<int>(p.y0 + p.vy * t), h_ / 5,
                                h_ - 3);
      FillCircle(out, px, py, std::max(2, h_ / 28),
                 p.team_a ? team_a_ : team_b_);
    }
    Rng noise(noise_seed_ + static_cast<uint64_t>(t));
    AddGaussianNoise(out, 3.0, &noise);
  }

 private:
  struct Player {
    double x0, y0, vx, vy;
    bool team_a;
  };
  int w_, h_;
  Rgb grass_, team_a_, team_b_;
  double pan_speed_;
  int stripe_period_;
  std::vector<Player> players_;
  uint64_t noise_seed_;
};

/// Flat, saturated shapes with thick outlines bouncing on a flat sky:
/// few regions, almost no texture, extreme palette.
class CartoonScene : public Scene {
 public:
  CartoonScene(int w, int h, Rng* rng) : w_(w), h_(h) {
    // Any palette goes in a cartoon — night scenes, sunsets, green skies.
    sky_ = HsvToRgb({static_cast<double>(rng->UniformInt(0, 359)),
                     rng->UniformDouble(0.3, 0.8),
                     rng->UniformDouble(0.4, 1.0)});
    ground_ = HsvToRgb({static_cast<double>(rng->UniformInt(0, 359)),
                        rng->UniformDouble(0.5, 0.95),
                        rng->UniformDouble(0.3, 0.9)});
    const int n_shapes = static_cast<int>(rng->UniformInt(2, 4));
    for (int i = 0; i < n_shapes; ++i) {
      Shape s;
      s.color = HsvToRgb({static_cast<double>(rng->UniformInt(0, 359)), 0.95,
                          0.95});
      s.circle = rng->Bernoulli(0.6);
      s.x0 = rng->UniformDouble(w_ * 0.1, w_ * 0.9);
      s.y0 = rng->UniformDouble(h_ * 0.15, h_ * 0.6);
      s.size = static_cast<int>(rng->UniformInt(h_ / 8, h_ / 4));
      s.vx = rng->UniformDouble(-2.0, 2.0);
      s.bounce_amp = rng->UniformDouble(2.0, h_ / 8.0);
      s.bounce_period = rng->UniformDouble(8.0, 20.0);
      shapes_.push_back(s);
    }
    sun_ = rng->Bernoulli(0.6);
  }

  void Render(int t, Image* out) const override {
    FillRect(out, 0, 0, w_, h_ * 2 / 3, sky_);
    FillRect(out, 0, h_ * 2 / 3, w_, h_ - h_ * 2 / 3, ground_);
    if (sun_) {
      FillCircle(out, w_ * 5 / 6, h_ / 6, h_ / 10, {255, 220, 40});
    }
    for (const Shape& s : shapes_) {
      int x = static_cast<int>(s.x0 + s.vx * t) % w_;
      if (x < 0) x += w_;
      const int y = static_cast<int>(
          s.y0 + s.bounce_amp * std::sin(2 * M_PI * t / s.bounce_period));
      const Rgb outline{25, 25, 25};
      if (s.circle) {
        FillCircle(out, x, y, s.size + 2, outline);
        FillCircle(out, x, y, s.size, s.color);
      } else {
        FillRect(out, x - s.size - 2, y - s.size - 2, 2 * s.size + 4,
                 2 * s.size + 4, outline);
        FillRect(out, x - s.size, y - s.size, 2 * s.size, 2 * s.size, s.color);
      }
    }
  }

 private:
  struct Shape {
    Rgb color;
    bool circle;
    double x0, y0, vx, bounce_amp, bounce_period;
    int size;
  };
  int w_, h_;
  Rgb sky_, ground_;
  bool sun_;
  std::vector<Shape> shapes_;
};

/// Dark, heavily textured cinematic frames: low-key gradient, angled
/// light shafts, film grain, slow pan.
class MovieScene : public Scene {
 public:
  MovieScene(int w, int h, Rng* rng) : w_(w), h_(h) {
    // Mostly low-key, but day-lit scenes happen too.
    const bool daylight = rng->Bernoulli(0.25);
    const int lo = daylight ? 90 : 10;
    const int hi = daylight ? 180 : 60;
    top_ = {static_cast<uint8_t>(rng->UniformInt(lo, hi)),
            static_cast<uint8_t>(rng->UniformInt(lo, hi)),
            static_cast<uint8_t>(rng->UniformInt(lo, hi + 20))};
    bottom_ = {static_cast<uint8_t>(rng->UniformInt(lo + 30, hi + 40)),
               static_cast<uint8_t>(rng->UniformInt(lo + 20, hi + 20)),
               static_cast<uint8_t>(rng->UniformInt(lo + 20, hi + 30))};
    shaft_angle_ = rng->UniformDouble(10.0, 80.0);
    shaft_period_ = static_cast<int>(rng->UniformInt(6, 26));
    pan_speed_ = rng->UniformDouble(0.3, 1.2);
    grain_ = rng->UniformDouble(4.0, 12.0);
    noise_seed_ = rng->Next();
    n_silhouettes_ = static_cast<int>(rng->UniformInt(1, 3));
    sil_seed_ = rng->Next();
  }

  void Render(int t, Image* out) const override {
    FillVerticalGradient(out, top_, bottom_);
    // Angled light shafts: add brightness along oblique bands.
    const double rad = shaft_angle_ * M_PI / 180.0;
    const double nx = std::cos(rad);
    const double ny = std::sin(rad);
    const double pan = t * pan_speed_;
    for (int y = 0; y < h_; ++y) {
      for (int x = 0; x < w_; ++x) {
        const double proj = x * nx + y * ny + pan;
        const int band = static_cast<int>(std::floor(proj / shaft_period_));
        if (((band % 2) + 2) % 2 == 0) {
          Rgb p = out->PixelRgb(x, y);
          p.r = static_cast<uint8_t>(std::min(255, p.r + 28));
          p.g = static_cast<uint8_t>(std::min(255, p.g + 24));
          p.b = static_cast<uint8_t>(std::min(255, p.b + 18));
          out->SetPixel(x, y, p);
        }
      }
    }
    // Dark foreground silhouettes.
    Rng sil(sil_seed_);
    for (int i = 0; i < n_silhouettes_; ++i) {
      const int sw = static_cast<int>(sil.UniformInt(w_ / 10, w_ / 4));
      const int sx =
          (static_cast<int>(sil.UniformInt(0, w_)) + static_cast<int>(pan)) %
          w_;
      FillRect(out, sx, h_ - h_ / 3, sw, h_ / 3, {8, 8, 12});
      FillCircle(out, sx + sw / 2, h_ - h_ / 3, sw / 3, {8, 8, 12});
    }
    Rng noise(noise_seed_ + static_cast<uint64_t>(t));
    AddGaussianNoise(out, grain_, &noise);
  }

 private:
  int w_, h_;
  Rgb top_, bottom_;
  double shaft_angle_, pan_speed_, grain_;
  int shaft_period_, n_silhouettes_;
  uint64_t noise_seed_, sil_seed_;
};

/// Studio shot: blue backdrop gradient, desk, anchor bust, side graphic
/// panel and a crawling ticker bar.
class NewsScene : public Scene {
 public:
  NewsScene(int w, int h, Rng* rng) : w_(w), h_(h) {
    // Studio backdrops span blue through red branding, bright or muted.
    backdrop_ = HsvToRgb({static_cast<double>(rng->UniformInt(160, 400) % 360),
                          rng->UniformDouble(0.45, 0.9),
                          rng->UniformDouble(0.35, 0.75)});
    desk_ = HsvToRgb({static_cast<double>(rng->UniformInt(15, 40)), 0.5,
                      0.45});
    skin_ = {static_cast<uint8_t>(rng->UniformInt(180, 230)),
             static_cast<uint8_t>(rng->UniformInt(140, 180)),
             static_cast<uint8_t>(rng->UniformInt(110, 150))};
    suit_ = {static_cast<uint8_t>(rng->UniformInt(25, 70)),
             static_cast<uint8_t>(rng->UniformInt(25, 70)),
             static_cast<uint8_t>(rng->UniformInt(35, 90))};
    has_panel_ = rng->Bernoulli(0.7);
    panel_ = HsvToRgb({static_cast<double>(rng->UniformInt(0, 359)), 0.6,
                       0.8});
    ticker_seed_ = rng->Next();
    noise_seed_ = rng->Next();
    anchor_x_ = static_cast<int>(rng->UniformInt(w_ / 3, w_ / 2));
  }

  void Render(int t, Image* out) const override {
    Rgb lighter = backdrop_;
    lighter.r = static_cast<uint8_t>(std::min(255, lighter.r + 40));
    lighter.g = static_cast<uint8_t>(std::min(255, lighter.g + 40));
    lighter.b = static_cast<uint8_t>(std::min(255, lighter.b + 40));
    FillVerticalGradient(out, lighter, backdrop_);
    if (has_panel_) {
      FillRect(out, w_ * 2 / 3, h_ / 10, w_ / 4, h_ / 2, panel_);
    }
    // Anchor: head bobs a pixel or two while talking.
    const int bob = static_cast<int>(std::lround(std::sin(t * 0.7)));
    FillRect(out, anchor_x_ - w_ / 8, h_ / 2 + bob, w_ / 4, h_ / 2, suit_);
    FillCircle(out, anchor_x_, h_ * 2 / 5 + bob, h_ / 8, skin_);
    // Desk.
    FillRect(out, 0, h_ * 3 / 4, w_, h_ / 4, desk_);
    // Ticker: dark bar with light blocks crawling left.
    FillRect(out, 0, h_ - h_ / 10, w_, h_ / 10, {15, 15, 25});
    Rng ticker(ticker_seed_);
    int x = -(t * 2) % (w_ * 2);
    while (x < w_) {
      const int len = static_cast<int>(ticker.UniformInt(w_ / 20, w_ / 8));
      FillRect(out, x, h_ - h_ / 12, len, h_ / 18, {230, 230, 240});
      x += len + static_cast<int>(ticker.UniformInt(4, 12));
    }
    Rng noise(noise_seed_ + static_cast<uint64_t>(t));
    AddGaussianNoise(out, 2.0, &noise);
  }

 private:
  int w_, h_;
  Rgb backdrop_, desk_, skin_, suit_, panel_;
  bool has_panel_;
  int anchor_x_;
  uint64_t ticker_seed_, noise_seed_;
};

}  // namespace

std::unique_ptr<Scene> MakeScene(VideoCategory category, int width, int height,
                                 Rng* rng) {
  switch (category) {
    case VideoCategory::kELearning:
      return std::make_unique<ELearningScene>(width, height, rng);
    case VideoCategory::kSports:
      return std::make_unique<SportsScene>(width, height, rng);
    case VideoCategory::kCartoon:
      return std::make_unique<CartoonScene>(width, height, rng);
    case VideoCategory::kMovie:
      return std::make_unique<MovieScene>(width, height, rng);
    case VideoCategory::kNews:
      return std::make_unique<NewsScene>(width, height, rng);
  }
  return nullptr;
}

}  // namespace vr
