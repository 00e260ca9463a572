//! The twelve simulated models of Table II.
//!
//! Capability axes are *calibration parameters of the simulator*, chosen
//! so that running the full benchmark reproduces the shape of the paper's
//! Table II (model ordering, MC-vs-SA gap, category contrasts, the ~20%
//! GPT-4o lead). They are not measurements of the real systems.
//! Knowledge vectors are in `Category::ALL` order:
//! `[Digital, Analog, Architecture, Manufacture, Physical]`.

use crate::profile::ModelProfile;

/// Factory for the paper's model roster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelZoo;

// one positional argument per ModelProfile field, in declaration order —
// a builder here would just re-spell the struct
#[allow(clippy::too_many_arguments)]
fn profile(
    name: &str,
    params_b: f64,
    encoder_resolution: usize,
    visual_acuity: f64,
    knowledge: [f64; 5],
    reasoning: f64,
    instruction_following: f64,
    mc_elimination: f64,
    supports_system_prompt: bool,
) -> ModelProfile {
    let p = ModelProfile {
        name: name.to_string(),
        params_b,
        encoder_resolution,
        visual_acuity,
        knowledge,
        reasoning,
        instruction_following,
        mc_elimination,
        supports_system_prompt,
    };
    p.validate();
    p
}

impl ModelZoo {
    /// LLaVA-1.6 7B (Mistral-7b backbone).
    pub fn llava_7b() -> ModelProfile {
        profile(
            "LLaVA-7b",
            7.0,
            336,
            0.62,
            [0.16, 0.12, 0.30, 0.10, 0.32],
            0.40,
            0.84,
            0.88,
            true,
        )
    }

    /// LLaVA-1.6 13B (Vicuna-13b backbone).
    pub fn llava_13b() -> ModelProfile {
        profile(
            "LLaVA-13b",
            13.0,
            336,
            0.62,
            [0.12, 0.12, 0.34, 0.20, 0.16],
            0.44,
            0.82,
            0.72,
            true,
        )
    }

    /// LLaVA-1.6 34B (Yi-34b backbone).
    pub fn llava_34b() -> ModelProfile {
        profile(
            "LLaVA-34b",
            34.0,
            672,
            0.64,
            [0.16, 0.22, 0.26, 0.22, 0.30],
            0.52,
            0.86,
            0.60,
            true,
        )
    }

    /// LLaVA-NeXT with the LLaMA-3-8b backbone.
    pub fn llava_llama3() -> ModelProfile {
        profile(
            "LLaVA-LLaMa-3",
            8.0,
            672,
            0.64,
            [0.18, 0.12, 0.34, 0.14, 0.28],
            0.52,
            0.87,
            0.72,
            true,
        )
    }

    /// NVIDIA NeVA 22B.
    pub fn neva_22b() -> ModelProfile {
        profile(
            "NeVA-22b",
            22.0,
            448,
            0.63,
            [0.16, 0.20, 0.28, 0.28, 0.18],
            0.50,
            0.84,
            0.62,
            true,
        )
    }

    /// Adept Fuyu-8B.
    pub fn fuyu_8b() -> ModelProfile {
        profile(
            "fuyu-8b",
            8.0,
            1080,
            0.55,
            [0.10, 0.22, 0.14, 0.12, 0.22],
            0.38,
            0.64,
            0.55,
            false,
        )
    }

    /// Google PaliGemma (3B, 224px).
    pub fn paligemma() -> ModelProfile {
        profile(
            "paligemma",
            3.0,
            224,
            0.45,
            [0.08, 0.08, 0.16, 0.16, 0.10],
            0.30,
            0.36,
            0.25,
            false,
        )
    }

    /// Microsoft Kosmos-2.
    pub fn kosmos_2() -> ModelProfile {
        profile(
            "kosmos-2",
            1.6,
            224,
            0.40,
            [0.08, 0.06, 0.10, 0.12, 0.12],
            0.26,
            0.22,
            0.05,
            false,
        )
    }

    /// Microsoft Phi-3-Vision.
    pub fn phi3_vision() -> ModelProfile {
        profile(
            "phi3-vision",
            4.2,
            1344,
            0.65,
            [0.20, 0.14, 0.14, 0.22, 0.34],
            0.50,
            0.82,
            0.48,
            true,
        )
    }

    /// NVIDIA VILA with the Yi-34B backbone.
    pub fn vila_yi_34b() -> ModelProfile {
        profile(
            "VILA-Yi-34B",
            34.0,
            448,
            0.65,
            [0.24, 0.26, 0.40, 0.04, 0.30],
            0.58,
            0.89,
            0.80,
            true,
        )
    }

    /// Meta LLaMA-3.2 90B Vision.
    pub fn llama_3_2_90b() -> ModelProfile {
        profile(
            "LLaMA-3.2-90B",
            90.0,
            1120,
            0.75,
            [0.20, 0.18, 0.18, 0.55, 0.58],
            0.66,
            0.91,
            0.68,
            true,
        )
    }

    /// OpenAI GPT-4o.
    pub fn gpt4o() -> ModelProfile {
        profile(
            "GPT4o",
            1800.0,
            1024,
            0.92,
            [0.20, 0.28, 0.32, 0.60, 0.82],
            0.85,
            0.97,
            0.95,
            true,
        )
    }

    /// GPT-4-Turbo as a *text-only* planner (the agent study's chip
    /// designer): stronger knowledge/reasoning than GPT-4o's grounded
    /// answering, but no visual access of its own (acuity 0 — it must use
    /// the vision tool).
    pub fn gpt4_turbo_text() -> ModelProfile {
        profile(
            "GPT4-Turbo (text)",
            1760.0,
            1024,
            0.0,
            [0.26, 0.32, 0.38, 0.48, 0.84],
            0.87,
            0.98,
            0.97,
            true,
        )
    }

    /// All twelve Table-II models in the paper's row order.
    pub fn all() -> Vec<ModelProfile> {
        vec![
            Self::llava_7b(),
            Self::llava_13b(),
            Self::llava_34b(),
            Self::llava_llama3(),
            Self::neva_22b(),
            Self::fuyu_8b(),
            Self::paligemma(),
            Self::kosmos_2(),
            Self::phi3_vision(),
            Self::vila_yi_34b(),
            Self::llama_3_2_90b(),
            Self::gpt4o(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_models_in_paper_order() {
        let all = ModelZoo::all();
        assert_eq!(all.len(), 12);
        assert_eq!(all[0].name, "LLaVA-7b");
        assert_eq!(all[11].name, "GPT4o");
        for p in &all {
            p.validate();
        }
    }

    #[test]
    fn zoo_has_no_duplicate_profiles() {
        // Every zoo entry is a distinct model: names and behavioural
        // fingerprints must both be unique across `all()`.
        let all = ModelZoo::all();
        let mut names: Vec<&str> = all.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate model name in zoo");
        let mut prints: Vec<u64> = all
            .iter()
            .map(|p| crate::VlmPipeline::new(p.clone()).fingerprint())
            .collect();
        prints.sort_unstable();
        prints.dedup();
        assert_eq!(prints.len(), all.len(), "duplicate fingerprint in zoo");
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<String> = ModelZoo::all().into_iter().map(|p| p.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn gpt4o_dominates_open_source_capabilities() {
        let gpt = ModelZoo::gpt4o();
        for p in ModelZoo::all().into_iter().take(11) {
            assert!(gpt.reasoning >= p.reasoning, "{}", p.name);
            assert!(gpt.visual_acuity >= p.visual_acuity, "{}", p.name);
        }
    }

    #[test]
    fn planner_is_text_only() {
        let planner = ModelZoo::gpt4_turbo_text();
        assert_eq!(planner.visual_acuity, 0.0);
        assert!(planner.reasoning > ModelZoo::gpt4o().reasoning);
    }

    #[test]
    fn llava_backbone_scaling_monotone_in_reasoning() {
        // Mistral-7b <= Vicuna-13b <= Yi-34b ~= LLaMA-3-8b (§IV-A)
        let r7 = ModelZoo::llava_7b().reasoning;
        let r13 = ModelZoo::llava_13b().reasoning;
        let r34 = ModelZoo::llava_34b().reasoning;
        assert!(r7 <= r13 && r13 <= r34);
    }
}
