//! # riskpipe-dfa
//!
//! Stage 3 of the risk-analytics pipeline: **Dynamic Financial
//! Analysis** — the paper's last step, where "the aggregate YLTs of
//! catastrophe risks are integrated with investment, reserving,
//! interest rate, market cycle, counter-party, and operational risks".
//!
//! Per simulation trial the engine draws every non-catastrophe risk
//! factor ([`factors`]), induces the configured rank correlation between
//! factor columns with the Iman–Conover method ([`correlate`]), joins
//! them with the catastrophe YLT, and produces a per-trial financial
//! statement ([`statement`]): premium, losses, investment income, net
//! income and ending capital. From the resulting net-income distribution
//! come the enterprise metrics the paper names — probability of ruin,
//! economic capital (TVaR-based), return on capital — and the
//! enterprise roll-up across business units quantifies the
//! diversification benefit ([`enterprise`]).

#![warn(missing_docs)]

pub mod allocation;
pub mod correlate;
pub mod enterprise;
pub mod factors;
pub mod horizon;
pub mod statement;

pub use allocation::{allocate, AllocationMethod, CapitalAllocation, UnitAllocation};
pub use correlate::{iman_conover, serial_map, CorrelationMatrix, TaskMap, TASK_CHUNK};
pub use enterprise::{BusinessUnit, EnterpriseResult, EnterpriseRollup};
pub use factors::{
    CounterpartyModel, InvestmentModel, MarketCycleModel, OperationalModel, ReserveModel,
    VasicekModel,
};
pub use horizon::{run_horizon, HorizonConfig, HorizonResult};
pub use statement::{CompanyConfig, DfaEngine, DfaFactors, DfaResult};
