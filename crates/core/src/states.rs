//! Pilot and Compute-Unit state models (RADICAL-Pilot's state diagrams),
//! with transition validation so illegal lifecycles fail loudly in tests.

/// Lifecycle of a Pilot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PilotState {
    /// Described, not yet submitted to the resource.
    New,
    /// Placeholder job submitted to the batch system.
    PendingLaunch,
    /// Batch job granted; agent bootstrapping (incl. Mode I framework).
    Launching,
    /// Agent up and accepting Compute-Units.
    Active,
    Done,
    Canceled,
    Failed,
}

impl PilotState {
    pub fn is_final(self) -> bool {
        matches!(
            self,
            PilotState::Done | PilotState::Canceled | PilotState::Failed
        )
    }

    /// Whether `self → next` is a legal transition.
    pub fn can_transition_to(self, next: PilotState) -> bool {
        use PilotState::*;
        match (self, next) {
            (New, PendingLaunch) => true,
            (PendingLaunch, Launching) => true,
            (Launching, Active) => true,
            (Active, Done) => true,
            // Cancellation/failure possible from any non-final state.
            (s, Canceled) | (s, Failed) => !s.is_final(),
            _ => false,
        }
    }
}

/// Lifecycle of a Compute-Unit (the paper's U.1–U.7 path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnitState {
    /// Described, not yet accepted by a Unit-Manager.
    New,
    /// Unit-Manager scheduler assigned a pilot; doc queued in the store (U.2).
    UmScheduling,
    /// Picked up by the agent (U.3) and queued in the agent scheduler (U.4).
    AgentScheduling,
    /// Input staging in progress.
    StagingInput,
    /// Holds an execution slot; Task Spawner launching (U.5/U.6).
    Executing,
    /// Output staging in progress (U.7).
    StagingOutput,
    Done,
    Canceled,
    Failed,
}

impl UnitState {
    pub fn is_final(self) -> bool {
        matches!(
            self,
            UnitState::Done | UnitState::Canceled | UnitState::Failed
        )
    }

    pub fn can_transition_to(self, next: UnitState) -> bool {
        use UnitState::*;
        match (self, next) {
            (New, UmScheduling) => true,
            (UmScheduling, AgentScheduling) => true,
            (AgentScheduling, StagingInput) => true,
            (StagingInput, Executing) => true,
            (Executing, StagingOutput) => true,
            (StagingOutput, Done) => true,
            // Failure-recovery retries: a unit whose node died mid-flight or
            // whose staging transfer faulted goes back to the agent queue.
            (StagingInput, AgentScheduling) => true,
            (Executing, AgentScheduling) => true,
            // Cross-pilot re-binding: when a whole pilot is lost (walltime
            // expiry, queue kill, agent death) or drains work it can no
            // longer finish, the Unit-Manager takes the unit back and
            // re-schedules it onto a surviving pilot.
            (AgentScheduling, UmScheduling) => true,
            (StagingInput, UmScheduling) => true,
            (Executing, UmScheduling) => true,
            (StagingOutput, UmScheduling) => true,
            (s, Canceled) | (s, Failed) => !s.is_final(),
            _ => false,
        }
    }
}

/// Static labels for a lifecycle enum, so recording a transition formats
/// nothing: `name()` is the variant name exactly as `Debug` prints it,
/// `transition_key()` the `<counter>{state=<name>}` key `metric_key`
/// would build, and `ALL` lists every state.
macro_rules! state_labels {
    ($ty:ident, $counter:literal, [$($state:ident),+ $(,)?]) => {
        impl $ty {
            pub const ALL: &'static [$ty] = &[$($ty::$state),+];

            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$state => stringify!($state)),+
                }
            }

            pub fn transition_key(self) -> &'static str {
                match self {
                    $($ty::$state => concat!($counter, "{state=", stringify!($state), "}")),+
                }
            }
        }
    };
}

state_labels!(
    PilotState,
    "pilot.transitions",
    [
        New,
        PendingLaunch,
        Launching,
        Active,
        Done,
        Canceled,
        Failed
    ]
);
state_labels!(
    UnitState,
    "unit.transitions",
    [
        New,
        UmScheduling,
        AgentScheduling,
        StagingInput,
        Executing,
        StagingOutput,
        Done,
        Canceled,
        Failed,
    ]
);

/// Guarded state cell shared by handles; panics on illegal transitions
/// (these would be silent protocol bugs otherwise).
#[derive(Debug)]
pub struct Guarded<S> {
    state: S,
}

impl Guarded<PilotState> {
    pub fn new() -> Self {
        Guarded {
            state: PilotState::New,
        }
    }

    pub fn get(&self) -> PilotState {
        self.state
    }

    pub fn advance(&mut self, next: PilotState) {
        assert!(
            self.state.can_transition_to(next),
            "illegal pilot transition {:?} -> {next:?}",
            self.state
        );
        self.state = next;
    }
}

impl Default for Guarded<PilotState> {
    fn default() -> Self {
        Self::new()
    }
}

impl Guarded<UnitState> {
    pub fn new() -> Self {
        Guarded {
            state: UnitState::New,
        }
    }

    pub fn get(&self) -> UnitState {
        self.state
    }

    pub fn advance(&mut self, next: UnitState) {
        assert!(
            self.state.can_transition_to(next),
            "illegal unit transition {:?} -> {next:?}",
            self.state
        );
        self.state = next;
    }
}

impl Default for Guarded<UnitState> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pilot_happy_path() {
        let mut g = Guarded::<PilotState>::new();
        for s in [
            PilotState::PendingLaunch,
            PilotState::Launching,
            PilotState::Active,
            PilotState::Done,
        ] {
            g.advance(s);
        }
        assert!(g.get().is_final());
    }

    #[test]
    fn unit_happy_path() {
        let mut g = Guarded::<UnitState>::new();
        for s in [
            UnitState::UmScheduling,
            UnitState::AgentScheduling,
            UnitState::StagingInput,
            UnitState::Executing,
            UnitState::StagingOutput,
            UnitState::Done,
        ] {
            g.advance(s);
        }
        assert!(g.get().is_final());
    }

    #[test]
    fn cancel_from_any_live_state() {
        for s in [
            PilotState::New,
            PilotState::PendingLaunch,
            PilotState::Launching,
            PilotState::Active,
        ] {
            assert!(s.can_transition_to(PilotState::Canceled), "{s:?}");
        }
        assert!(!PilotState::Done.can_transition_to(PilotState::Canceled));
    }

    #[test]
    fn retry_paths_are_legal() {
        assert!(UnitState::Executing.can_transition_to(UnitState::AgentScheduling));
        assert!(UnitState::StagingInput.can_transition_to(UnitState::AgentScheduling));
        assert!(!UnitState::StagingOutput.can_transition_to(UnitState::AgentScheduling));
        assert!(!UnitState::Done.can_transition_to(UnitState::AgentScheduling));
    }

    #[test]
    fn rebind_paths_are_legal() {
        for s in [
            UnitState::AgentScheduling,
            UnitState::StagingInput,
            UnitState::Executing,
            UnitState::StagingOutput,
        ] {
            assert!(s.can_transition_to(UnitState::UmScheduling), "{s:?}");
        }
        // A unit the UM has not yet handed to an agent cannot "re-bind";
        // final units stay final.
        assert!(!UnitState::UmScheduling.can_transition_to(UnitState::UmScheduling));
        assert!(!UnitState::Done.can_transition_to(UnitState::UmScheduling));
        assert!(!UnitState::Failed.can_transition_to(UnitState::UmScheduling));
    }

    #[test]
    #[should_panic]
    fn skipping_states_panics() {
        let mut g = Guarded::<UnitState>::new();
        // rp-lint: allow(state-machine): deliberately illegal, proves the guard panics
        g.advance(UnitState::Executing);
    }

    #[test]
    #[should_panic]
    fn leaving_final_state_panics() {
        let mut g = Guarded::<PilotState>::new();
        g.advance(PilotState::Canceled);
        // rp-lint: allow(state-machine): deliberately illegal, proves finals are terminal
        g.advance(PilotState::PendingLaunch);
    }
}
