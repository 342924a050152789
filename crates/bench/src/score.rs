//! Mapping from validation loss to the paper's quality scores.
//!
//! The paper reports BLEU for NLP spaces and top-5 accuracy for CV spaces.
//! Our substrate trains synthetic regression tasks, so we map validation
//! MSE onto those scales with fixed affine transforms, calibrated so a
//! well-trained supernet lands near the paper's figures (BLEU ~22, top-5
//! ~82 %). The mapping is monotone (lower loss -> higher score) and
//! deterministic; what the reproducibility experiments assert is *equality
//! or divergence* of scores across runs, which any monotone mapping
//! preserves.

use naspipe_supernet::layer::Domain;

/// Converts a validation loss to a BLEU-like score (NLP spaces).
///
/// Calibrated so converged validation losses of the scaled training
/// substrate (~0.26-0.38) land in the paper's BLEU range (~20.5-22).
pub(crate) fn bleu_from_loss(loss: f64) -> f64 {
    (24.0 - 8.0 * loss).max(0.0)
}

/// Converts a validation loss to a top-5-accuracy-like percentage (CV
/// spaces).
///
/// Calibrated so converged validation losses (~0.20-0.36) land in the
/// paper's top-5 range (~78-83 %).
pub(crate) fn top5_from_loss(loss: f64) -> f64 {
    (89.0 - 30.0 * loss).clamp(0.0, 100.0)
}

/// Domain-appropriate score for a validation loss.
pub(crate) fn score_from_loss(domain: Domain, loss: f64) -> f64 {
    match domain {
        Domain::Nlp => bleu_from_loss(loss),
        Domain::Cv => top5_from_loss(loss),
    }
}

/// Renders a score with the paper's precision (two decimals for BLEU,
/// one + `%` for top-5).
pub(crate) fn render_score(domain: Domain, score: f64) -> String {
    match domain {
        Domain::Nlp => format!("{score:.2}"),
        Domain::Cv => format!("{score:.1}%"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_loss_scores_higher() {
        assert!(bleu_from_loss(0.05) > bleu_from_loss(0.2));
        assert!(top5_from_loss(0.05) > top5_from_loss(0.2));
        assert!(score_from_loss(Domain::Nlp, 0.1) > score_from_loss(Domain::Nlp, 0.2));
    }

    #[test]
    fn scores_are_bounded() {
        assert_eq!(bleu_from_loss(10.0), 0.0);
        assert_eq!(top5_from_loss(10.0), 0.0);
        assert!(top5_from_loss(0.0) <= 100.0);
    }

    #[test]
    fn rendering() {
        assert_eq!(render_score(Domain::Nlp, 22.174), "22.17");
        assert_eq!(render_score(Domain::Cv, 82.36), "82.4%");
    }
}
