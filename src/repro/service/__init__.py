"""The campaign service layer: durable, cache-aware fleet execution.

``repro.service`` is the one engine behind
:func:`repro.campaign.run_campaign`, ``repro campaign`` and
:func:`resume_campaign`: a long-lived, crash-survivable execution service
(ROADMAP item 2(b)).  Four pieces compose (docs/CAMPAIGNS.md is the
reference):

* :mod:`repro.service.journal` — an append-only JSONL journal
  (``CAMPAIGN-JOURNAL`` header, atomic fsynced appends) recording every
  variant state transition (queued → leased → attempt-N → done/failed/
  timeout), so a campaign whose *supervisor* is SIGKILLed resumes by
  re-enqueueing only unfinished variants.
* :mod:`repro.service.policy` — :class:`RetryPolicy`: exponential backoff
  with deterministic seeded jitter between attempts.
* :mod:`repro.service.cache` — :class:`ResultCache`: results stored as
  ``repro/v1`` envelopes keyed by the SHA-256 of the variant's canonical
  config JSON, so duplicate variants within and across campaigns are
  served from cache instead of re-simulated.
* :mod:`repro.service.runner` — the supervisor itself: in-process attempts
  or watchdogged worker processes, backoff-scheduled retries, a whole-campaign deadline with
  graceful degradation, checkpoint-resume on retry (corrupt checkpoints
  are discarded, not fatal), journal and cache integration.

``tools/chaos_campaign.py`` is the standing proof: it SIGKILLs workers,
corrupts checkpoints, stalls a worker past its watchdog and SIGKILLs the
supervisor itself mid-journal, then requires the resumed campaign's result
envelopes to be bit-for-bit equal to an undisturbed run's.
"""

from repro.service.cache import (
    CACHE_ENVELOPE_COMMAND,
    ResultCache,
    cache_config,
    cache_key,
    canonical_envelope,
    result_core,
)
from repro.service.journal import (
    JOURNAL_MAGIC,
    JOURNAL_VERSION,
    CampaignJournal,
    JournalError,
    JournalState,
    read_journal,
)
from repro.service.policy import RetryPolicy
from repro.service.runner import (
    CampaignOutcome,
    resume_campaign,
    run_service_campaign,
)

__all__ = [
    "CACHE_ENVELOPE_COMMAND",
    "CampaignJournal",
    "CampaignOutcome",
    "JOURNAL_MAGIC",
    "JOURNAL_VERSION",
    "JournalError",
    "JournalState",
    "ResultCache",
    "RetryPolicy",
    "cache_config",
    "cache_key",
    "canonical_envelope",
    "read_journal",
    "result_core",
    "resume_campaign",
    "run_service_campaign",
]
