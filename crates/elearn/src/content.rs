//! Confidentiality classes of the LMS's digital assets.
//!
//! The paper singles out "digital assets (tests, exam questions, results)"
//! as the data whose confidentiality and survival matter (§III.6, §IV.B).
//! The security model in `elc-deploy` classes each LMS component by a
//! [`Sensitivity`] and weighs incidents by it.

/// Confidentiality classes, least to most sensitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Sensitivity {
    /// Visible to enrolled users.
    CourseMembers,
    /// Visible to staff.
    Internal,
    /// Exam questions, results — the paper's critical assets.
    Confidential,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensitivity_is_ordered() {
        assert!(Sensitivity::Confidential > Sensitivity::Internal);
        assert!(Sensitivity::Internal > Sensitivity::CourseMembers);
    }
}
